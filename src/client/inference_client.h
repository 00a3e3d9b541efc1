#ifndef MLCS_CLIENT_INFERENCE_CLIENT_H_
#define MLCS_CLIENT_INFERENCE_CLIENT_H_

#include "client/client.h"

namespace mlcs::client {

/// The serving-side name of the one client class (client/client.h).
using InferenceClient = Client;

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_INFERENCE_CLIENT_H_
