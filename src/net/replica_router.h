// Types shared by the client-side router (src/net/sharded_router.h) and
// its callers: a node's address and the error a node's explicit answer
// raises. A replicated deployment is a ShardedRouter with one shard whose
// replicas are the interchangeable nodes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/core/request_types.h"

namespace gpudpf {
namespace net {

// One PirServerNode's listening address.
struct Endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

// An admission rejection or server-side terminal failure from a replica
// that DID answer — deliberately not retried: the node accepted or
// refused the request itself, so resubmitting would double-submit.
class ReplicaRequestError : public std::runtime_error {
  public:
    ReplicaRequestError(const std::string& what, AdmissionStatus admission,
                        RequestStatus status)
        : std::runtime_error(what), admission_(admission), status_(status) {}

    // kAccepted when the failure was a terminal status, not admission.
    AdmissionStatus admission() const { return admission_; }
    RequestStatus status() const { return status_; }

  private:
    AdmissionStatus admission_;
    RequestStatus status_;
};

}  // namespace net
}  // namespace gpudpf
