#include "obs/introspection.h"

#include <utility>

#include "common/settings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlcs::obs {

namespace {

double ToMicros(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1000.0;
}

Schema TraceSchema() {
  Schema schema;
  schema.AddField("trace_id", TypeId::kInt64);
  schema.AddField("span_id", TypeId::kInt64);
  schema.AddField("parent_id", TypeId::kInt64);
  schema.AddField("name", TypeId::kVarchar);
  schema.AddField("start_us", TypeId::kDouble);
  schema.AddField("duration_us", TypeId::kDouble);
  schema.AddField("rows_in", TypeId::kInt64);
  schema.AddField("rows_out", TypeId::kInt64);
  schema.AddField("bytes", TypeId::kInt64);
  schema.AddField("note", TypeId::kVarchar);
  return schema;
}

Schema SettingsSchema() {
  Schema schema;
  schema.AddField("name", TypeId::kVarchar);
  schema.AddField("value", TypeId::kInt64);
  schema.AddField("default_value", TypeId::kInt64);
  schema.AddField("source", TypeId::kVarchar);
  return schema;
}

Schema SlowQuerySchema() {
  Schema schema;
  schema.AddField("trace_id", TypeId::kInt64);
  schema.AddField("query", TypeId::kVarchar);
  schema.AddField("duration_ms", TypeId::kDouble);
  schema.AddField("spans", TypeId::kInt64);
  schema.AddField("dropped_spans", TypeId::kInt64);
  schema.AddField("truncated", TypeId::kInt64);
  schema.AddField("plan", TypeId::kVarchar);
  return schema;
}

}  // namespace

TablePtr MetricsTable() {
  Schema schema;
  schema.AddField("name", TypeId::kVarchar);
  schema.AddField("kind", TypeId::kVarchar);
  schema.AddField("value", TypeId::kDouble);
  auto table = Table::Make(std::move(schema));
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    (void)table->AppendRow({Value::Varchar(s.name), Value::Varchar(s.kind),
                            Value::Double(s.value)});
  }
  return table;
}

TablePtr SettingsTable() {
  auto table = Table::Make(SettingsSchema());
  for (const Setting* s : settings::All()) {
    (void)table->AppendRow({Value::Varchar(s->name()), Value::Int64(s->Get()),
                            Value::Int64(s->default_value()),
                            Value::Varchar(SettingSourceName(s->source()))});
  }
  return table;
}

TablePtr TraceTable(uint64_t trace_id) {
  auto table = Table::Make(TraceSchema());
  for (const TraceSpan& s : FlightRecorder::Global().Query(trace_id)) {
    (void)table->AppendRow(
        {Value::Int64(static_cast<int64_t>(s.trace_id)),
         Value::Int64(s.span_id), Value::Int64(s.parent_id),
         Value::Varchar(s.name), Value::Double(ToMicros(s.start_offset)),
         Value::Double(ToMicros(s.duration)),
         Value::Int64(static_cast<int64_t>(s.rows_in)),
         Value::Int64(static_cast<int64_t>(s.rows_out)),
         Value::Int64(static_cast<int64_t>(s.bytes)),
         Value::Varchar(s.note)});
  }
  return table;
}

TablePtr SlowQueriesTable() {
  auto table = Table::Make(SlowQuerySchema());
  for (const RecordedTrace& t : FlightRecorder::Global().SlowQueries()) {
    (void)table->AppendRow(
        {Value::Int64(static_cast<int64_t>(t.trace_id)),
         Value::Varchar(t.query_text.empty() ? t.root_name : t.query_text),
         Value::Double(t.duration_ms),
         Value::Int64(static_cast<int64_t>(t.spans.size())),
         Value::Int64(static_cast<int64_t>(t.dropped_spans)),
         Value::Int64(t.truncated ? 1 : 0), Value::Varchar(t.plan_text)});
  }
  return table;
}

Status RegisterIntrospectionFunctions(udf::UdfRegistry* registry) {
  {
    udf::TableUdfEntry entry;
    entry.name = "mlcs_metrics";
    entry.typed = true;  // zero arguments, enforced
    entry.return_schema.AddField("name", TypeId::kVarchar);
    entry.return_schema.AddField("kind", TypeId::kVarchar);
    entry.return_schema.AddField("value", TypeId::kDouble);
    entry.fn =
        [](const std::vector<ColumnPtr>& /*args*/) -> Result<TablePtr> {
      return MetricsTable();
    };
    MLCS_RETURN_IF_ERROR(registry->RegisterTable(std::move(entry)));
  }
  {
    udf::TableUdfEntry entry;
    entry.name = "mlcs_settings";
    entry.typed = true;  // zero arguments, enforced
    entry.return_schema = SettingsSchema();
    entry.fn =
        [](const std::vector<ColumnPtr>& /*args*/) -> Result<TablePtr> {
      return SettingsTable();
    };
    MLCS_RETURN_IF_ERROR(registry->RegisterTable(std::move(entry)));
  }
  {
    udf::TableUdfEntry entry;
    entry.name = "mlcs_trace";
    entry.param_types = {TypeId::kInt64};
    entry.typed = true;
    entry.return_schema = TraceSchema();
    entry.fn = [](const std::vector<ColumnPtr>& args) -> Result<TablePtr> {
      if (args.size() != 1 || args[0]->size() != 1 || args[0]->IsNull(0)) {
        return Status::InvalidArgument(
            "mlcs_trace(trace_id) takes one non-NULL BIGINT "
            "(0 selects every retained trace)");
      }
      MLCS_ASSIGN_OR_RETURN(Value id, args[0]->GetValue(0));
      return TraceTable(static_cast<uint64_t>(id.int64_value()));
    };
    MLCS_RETURN_IF_ERROR(registry->RegisterTable(std::move(entry)));
  }
  {
    udf::TableUdfEntry entry;
    entry.name = "mlcs_slow_queries";
    entry.typed = true;  // zero arguments, enforced
    entry.return_schema = SlowQuerySchema();
    entry.fn =
        [](const std::vector<ColumnPtr>& /*args*/) -> Result<TablePtr> {
      return SlowQueriesTable();
    };
    MLCS_RETURN_IF_ERROR(registry->RegisterTable(std::move(entry)));
  }
  return Status::OK();
}

}  // namespace mlcs::obs
