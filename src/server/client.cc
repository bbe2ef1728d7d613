#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace sqopt::server {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, int port,
                               int timeout_ms) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) +
                                   " is outside [1, 65535]");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Result<Response> Client::ReceiveResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  std::string_view payload;
  char buf[16384];
  for (;;) {
    switch (reader_.Next(&payload)) {
      case FrameReader::Outcome::kFrame:
        return DecodeResponse(payload);
      case FrameReader::Outcome::kBadCrc:
        return Status::Corruption("response frame failed CRC check");
      case FrameReader::Outcome::kTooLarge:
        return Status::Corruption("response frame exceeds maximum size");
      case FrameReader::Outcome::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reader_.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::Internal("connection closed while awaiting response");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("receive timed out awaiting response");
    }
    return Errno("recv");
  }
}

Result<Response> Client::Call(const Request& request) {
  SQOPT_RETURN_IF_ERROR(SendRaw(EncodeRequest(request)));
  return ReceiveResponse();
}

Result<Response> Client::Query(std::string_view text, uint32_t deadline_ms) {
  Request request;
  request.type = RequestType::kQuery;
  request.deadline_ms = deadline_ms;
  request.query_text = std::string(text);
  return Call(request);
}

Result<std::string> Client::Stats() {
  Request request;
  request.type = RequestType::kStats;
  SQOPT_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.ok()) return response.ToStatus();
  return std::move(response.stats_text);
}

Status Client::Ping() {
  Request request;
  request.type = RequestType::kPing;
  SQOPT_ASSIGN_OR_RETURN(Response response, Call(request));
  return response.ToStatus();
}

Result<Response> Client::Hello(uint32_t version) {
  Request request;
  request.type = RequestType::kHello;
  request.protocol_version = version;
  return Call(request);
}

Result<Response> Client::Apply(const MutationBatch& batch,
                               uint32_t deadline_ms) {
  Request request;
  request.type = RequestType::kApply;
  request.deadline_ms = deadline_ms;
  request.batch = batch;
  return Call(request);
}

Status Client::Checkpoint(uint32_t deadline_ms) {
  Request request;
  request.type = RequestType::kCheckpoint;
  request.deadline_ms = deadline_ms;
  SQOPT_ASSIGN_OR_RETURN(Response response, Call(request));
  return response.ToStatus();
}

Result<Response> Client::Subscribe(uint64_t from_version) {
  Request request;
  request.type = RequestType::kSubscribe;
  request.from_version = from_version;
  return Call(request);
}

}  // namespace sqopt::server
