// A small blocking client for the sqopt wire protocol: one TCP
// connection, synchronous request/response. This is what the load
// generator, the server bench, and the integration tests speak; it is
// deliberately simple — open-loop concurrency comes from running many
// clients, not from pipelining one.
#ifndef SQOPT_SERVER_CLIENT_H_
#define SQOPT_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/mutation.h"
#include "common/status.h"
#include "server/wire.h"

namespace sqopt::server {

class Client {
 public:
  // Connects (blocking, with `timeout_ms` for both the connect and
  // every subsequent send/receive).
  static Result<Client> Connect(const std::string& host, int port,
                                int timeout_ms = 5000);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Sends one request and blocks for its response. Transport failures
  // (reset, timeout, unframeable bytes) surface as error Results; a
  // typed server-side rejection (kOverloaded, kTimeout, execution
  // errors) is a SUCCESSFUL Result whose Response carries the code.
  Result<Response> Call(const Request& request);

  // Convenience wrappers.
  Result<Response> Query(std::string_view text, uint32_t deadline_ms = 0);
  Result<std::string> Stats();
  Status Ping();

  // Checks that the server speaks `version`: OK (with its feature
  // bits) when it does, else a typed kUnsupportedVersion, after which
  // the server closes the connection. No request needs it first.
  Result<Response> Hello(uint32_t version = kProtocolVersion);

  // Write surface. The Response carries the typed outcome
  // (snapshot_version, inserted rows) or the server's rejection code.
  Result<Response> Apply(const MutationBatch& batch,
                         uint32_t deadline_ms = 0);
  Status Checkpoint(uint32_t deadline_ms = 0);

  // Starts the replication stream: the server acks with its current
  // version, then pushes kReplicate responses (read them with
  // ReceiveResponse) starting at from_version + 1.
  Result<Response> Subscribe(uint64_t from_version);

  // Always kProtocolVersion. Kept only for perfbench/workloads.cc,
  // which passes it to EncodeRequest; delete it with that overload.
  uint32_t protocol() const { return kProtocolVersion; }

  // Raw access for protocol tests: send arbitrary bytes / read one
  // framed response off the wire.
  Status SendRaw(std::string_view bytes);
  Result<Response> ReceiveResponse();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace sqopt::server

#endif  // SQOPT_SERVER_CLIENT_H_
