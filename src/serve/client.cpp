/** @file Client implementation (see client.h). */

#include "serve/client.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/serde.h"

namespace hentt::serve {

Client::Client(int fd, u32 protocol_version)
    : fd_(fd), protocol_version_(protocol_version)
{
}

Client::~Client()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

Result<std::unique_ptr<Client>>
Client::Connect(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(addr.sun_path)) {
        return Status(ErrorCode::kInvalidArgument,
                      "socket path empty or too long: " + socket_path)
            .WithFrame("Client::Connect");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return Status(ErrorCode::kUnavailable,
                      std::string("socket() failed: ") +
                          std::strerror(errno))
            .WithFrame("Client::Connect");
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Status status =
            Status(ErrorCode::kUnavailable,
                   "connect(" + socket_path +
                       ") failed: " + std::strerror(errno))
                .WithFrame("Client::Connect");
        ::close(fd);
        return status;
    }
    Result<u32> version = ClientHandshake(fd);
    if (!version.ok()) {
        ::close(fd);
        return version.status().WithFrame("Client::Connect");
    }
    return std::unique_ptr<Client>(new Client(fd, *version));
}

Result<Frame>
Client::RoundTrip(FrameType type, std::vector<u8> payload)
{
    Frame request;
    request.type = type;
    request.payload = std::move(payload);
    Status sent = WriteFrame(fd_, request);
    if (!sent.ok()) {
        return sent.WithFrame("Client::RoundTrip");
    }
    Result<Frame> reply = ReadFrame(fd_);
    if (!reply.ok()) {
        return reply.status().WithFrame("Client::RoundTrip");
    }
    if (reply->type == FrameType::kError) {
        Result<WireStatus> ws = DecodeStatus(reply->payload);
        if (!ws.ok()) {
            return ws.status().WithFrame("Client::RoundTrip");
        }
        return WireStatusToStatus(*ws);
    }
    return reply;
}

Result<u64>
Client::CreateSession(const he::HeParams &params)
{
    Result<Frame> reply = RoundTrip(FrameType::kCreateSession,
                                    EncodeParams(ToWire(params)));
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kSessionCreated) {
        return Status(ErrorCode::kInternal,
                      std::string("expected SessionCreated, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::CreateSession");
    }
    Result<u64> id = DecodeU64Payload(reply->payload);
    if (!id.ok()) {
        return id.status().WithFrame("Client::CreateSession");
    }
    // The daemon accepted the parameters, so the local mirror build
    // can only fail on resource exhaustion.
    try {
        ctx_ = std::make_shared<const he::HeContext>(params);
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "Client::CreateSession");
    }
    return *id;
}

Status
Client::LoadKeys(const he::RelinKey &rk)
{
    Result<Frame> reply =
        RoundTrip(FrameType::kLoadKeys, EncodeRelinKey(ToWire(rk)));
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kOk) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Ok, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::LoadKeys");
    }
    return Status::Ok();
}

Result<u64>
Client::SubmitGraph(const std::vector<he::Ciphertext> &inputs,
                    const std::vector<WireProgram::Op> &ops,
                    const std::vector<u32> &outputs)
{
    WireProgram program;
    program.inputs.reserve(inputs.size());
    for (const he::Ciphertext &ct : inputs) {
        program.inputs.push_back(ToWire(ct));
    }
    program.ops = ops;
    program.outputs = outputs;
    Result<Frame> reply =
        RoundTrip(FrameType::kSubmitGraph, EncodeProgram(program));
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kSubmitted) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Submitted, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::SubmitGraph");
    }
    Result<u64> id = DecodeU64Payload(reply->payload);
    if (!id.ok()) {
        return id.status().WithFrame("Client::SubmitGraph");
    }
    return *id;
}

Result<Client::Outcome>
Client::Poll(u64 request_id)
{
    Result<Frame> reply =
        RoundTrip(FrameType::kPoll, EncodeU64Payload(request_id));
    if (!reply.ok()) {
        return reply.status();
    }
    Outcome outcome;
    if (reply->type == FrameType::kPending) {
        return outcome;
    }
    if (reply->type != FrameType::kDone) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Done/Pending, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::Poll");
    }
    Result<std::vector<he::Ciphertext>> outputs = DecodeDone(*reply);
    if (!outputs.ok()) {
        return outputs.status().WithFrame("Client::Poll");
    }
    outcome.done = true;
    outcome.outputs = std::move(*outputs);
    return outcome;
}

Result<std::vector<he::Ciphertext>>
Client::AwaitDone(u64 request_id)
{
    // One round trip: the daemon answers kAwait only once the request
    // has settled (or at once, for an id this session does not own).
    Result<Frame> reply =
        RoundTrip(FrameType::kAwait, EncodeU64Payload(request_id));
    if (!reply.ok()) {
        return reply.status().WithFrame("Client::AwaitDone");
    }
    if (reply->type != FrameType::kDone) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Done, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::AwaitDone");
    }
    Result<std::vector<he::Ciphertext>> outputs = DecodeDone(*reply);
    if (!outputs.ok()) {
        return outputs.status().WithFrame("Client::AwaitDone");
    }
    return outputs;
}

Result<std::vector<he::Ciphertext>>
Client::DecodeDone(const Frame &reply) const
{
    if (ctx_ == nullptr) {
        return Status(ErrorCode::kFailedPrecondition,
                      "result before CreateSession built the local "
                      "context")
            .WithFrame("Client::DecodeDone");
    }
    Result<std::vector<WireCiphertext>> wcts =
        DecodeCiphertextList(reply.payload);
    if (!wcts.ok()) {
        return wcts.status().WithFrame("Client::DecodeDone");
    }
    std::vector<he::Ciphertext> outputs;
    outputs.reserve(wcts->size());
    for (const WireCiphertext &wct : *wcts) {
        Result<he::Ciphertext> ct = CiphertextFromWire(*ctx_, wct);
        if (!ct.ok()) {
            return ct.status().WithFrame("Client::DecodeDone");
        }
        outputs.push_back(std::move(*ct));
    }
    return outputs;
}

Status
Client::Ping()
{
    Result<Frame> reply = RoundTrip(FrameType::kPing, {});
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kPong) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Pong, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::Ping");
    }
    return Status::Ok();
}

Result<WireStats>
Client::Stats()
{
    Result<Frame> reply = RoundTrip(FrameType::kGetStats, {});
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kStatsReply) {
        return Status(ErrorCode::kInternal,
                      std::string("expected StatsReply, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::Stats");
    }
    Result<WireStats> stats = DecodeStats(reply->payload);
    if (!stats.ok()) {
        return stats.status().WithFrame("Client::Stats");
    }
    return stats;
}

Status
Client::CloseSession()
{
    Result<Frame> reply = RoundTrip(FrameType::kCloseSession, {});
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kOk) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Ok, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::CloseSession");
    }
    ctx_.reset();
    return Status::Ok();
}

Status
Client::Shutdown()
{
    Result<Frame> reply = RoundTrip(FrameType::kShutdown, {});
    if (!reply.ok()) {
        return reply.status();
    }
    if (reply->type != FrameType::kOk) {
        return Status(ErrorCode::kInternal,
                      std::string("expected Ok, got ") +
                          FrameTypeName(reply->type))
            .WithFrame("Client::Shutdown");
    }
    return Status::Ok();
}

}  // namespace hentt::serve
