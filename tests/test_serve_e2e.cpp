/**
 * @file
 * End-to-end tests of the serving layer over real unix-domain sockets:
 * an in-process Daemon, real Client connections, real frames.
 *
 * What must hold (the acceptance criteria of the serving layer):
 *   - a full encrypted round trip (keygen → session → keys → graph →
 *     await → decrypt) produces the same plaintext as local evaluation;
 *   - requests that arrive while a batch executes coalesce into the
 *     next one (group commit): the daemon's stats prove requests
 *     shared a wavefront batch;
 *   - awaits and polls are scoped to the owning session, and a request
 *     still queued at shutdown settles as kUnavailable (no hung await);
 *   - the admission queue is bounded: over-limit submits are shed as
 *     kResourceExhausted and later requests are still served (an
 *     in-process Coalescer test, at the end of the file);
 *   - every failure — protocol misuse, malformed bytes, missing keys,
 *     injected faults — reaches the client as a Status with the
 *     daemon's provenance, and the daemon keeps serving afterwards;
 *   - a dying connection takes its session with it (no orphans);
 *   - shutdown over the wire stops the daemon cleanly.
 *
 * The fault-injection cases arm the serve.request site and are skipped
 * (trivially green) when failpoints are not compiled in; the CI serve
 * job runs this suite in both configurations. These tests carry the
 * `serve` ctest label: socket-bound and timing-windowed, they get a
 * tighter timeout and one CI retry (CMakeLists.txt). The timing
 * windows are held open by BusyProgram: one N=4096 × 8-limb request
 * whose kernel time keeps the coalescer worker occupied while the
 * test queues small requests behind it.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/mutex.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace hentt::serve {
namespace {

he::HeParams
SmallParams()
{
    he::HeParams params;
    params.degree = 64;
    params.prime_count = 3;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/** Unique socket path per test (the daemon unlinks it on stop). */
std::string
TestSocketPath(const char *tag)
{
    return "/tmp/hentt-serve-test-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

/** Poll daemon stats until @p pred holds or ~2s elapse. */
template <typename Pred>
bool
EventuallyTrue(Pred pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

/** The large class: one program here costs milliseconds of kernel
 *  time, against microseconds at SmallParams. */
he::HeParams
LargeParams()
{
    he::HeParams params;
    params.degree = 4096;
    params.prime_count = 8;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/**
 * A request that keeps the coalescer worker busy: Mul → Relin →
 * ModSwitch, squared kLevels times, over one LargeParams ciphertext
 * pair. Every level depends on the last, so the whole chain runs
 * inside one admitted batch and anything submitted meanwhile queues
 * behind it.
 */
struct BusyProgram {
    static constexpr u32 kLevels = 6;

    explicit BusyProgram(std::shared_ptr<const he::HeContext> ctx)
        : scheme(std::move(ctx), /*seed=*/3)
    {
        const he::SecretKey sk = scheme.KeyGen();
        rk = std::make_shared<const he::RelinKey>(
            scheme.MakeRelinKey(sk));
        const he::Plaintext m(LargeParams().degree, 2);
        inputs = {scheme.Encrypt(sk, m), scheme.Encrypt(sk, m)};
        u32 a = 0, b = 1;
        for (u32 level = 0; level < kLevels; ++level) {
            const u32 mul = 2 + 3 * level;
            ops.push_back({WireOp::kMul, a, b});
            ops.push_back({WireOp::kRelin, mul, 0});
            ops.push_back({WireOp::kModSwitch, mul + 1, 0});
            a = b = mul + 2;
        }
        outputs = {a};
    }

    he::BgvScheme scheme;
    std::shared_ptr<const he::RelinKey> rk;
    std::vector<he::Ciphertext> inputs;
    std::vector<WireProgram::Op> ops;
    std::vector<u32> outputs;
};

class ServeE2E : public ::testing::Test
{
  protected:
    void
    StartDaemon(const char *tag, BatchConfig batch = {})
    {
        DaemonConfig config;
        config.socket_path = TestSocketPath(tag);
        config.batch = batch;
        daemon_ = std::make_unique<Daemon>(config);
        const Status started = daemon_->Start();
        ASSERT_TRUE(started.ok()) << started.ToString();
    }

    std::unique_ptr<Client>
    NewClient()
    {
        Result<std::unique_ptr<Client>> client =
            Client::Connect(daemon_->socket_path());
        EXPECT_TRUE(client.ok()) << client.status().ToString();
        return client.ok() ? std::move(*client) : nullptr;
    }

    /**
     * Occupy the worker: open a LargeParams session on a new client,
     * submit a BusyProgram, and return once the worker has admitted it
     * (batches_executed counts admissions). Returns the busy client;
     * its request is still executing for milliseconds after this.
     */
    std::unique_ptr<Client>
    OccupyWorker()
    {
        std::unique_ptr<Client> busy = NewClient();
        if (busy == nullptr) {
            return nullptr;
        }
        EXPECT_TRUE(busy->CreateSession(LargeParams()).ok());
        const BusyProgram program(busy->context());
        EXPECT_TRUE(busy->LoadKeys(*program.rk).ok());
        const u64 admitted = daemon_->Stats().batches_executed;
        Result<u64> request = busy->SubmitGraph(
            program.inputs, program.ops, program.outputs);
        EXPECT_TRUE(request.ok()) << request.status().ToString();
        EXPECT_TRUE(EventuallyTrue([this, admitted] {
            return daemon_->Stats().batches_executed > admitted;
        }));
        return busy;
    }

    void
    TearDown() override
    {
        if (daemon_ != nullptr) {
            daemon_->Stop();
        }
        fp::ResetAll();
    }

    std::unique_ptr<Daemon> daemon_;
};

TEST_F(ServeE2E, PingAndStats)
{
    StartDaemon("ping");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->protocol_version(), kProtocolVersion);
    const Status ping = client->Ping();
    EXPECT_TRUE(ping.ok()) << ping.ToString();
    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->sessions_created, 0u);
    EXPECT_EQ(stats->requests_submitted, 0u);
}

TEST_F(ServeE2E, EncryptedRoundTripMatchesLocalEvaluation)
{
    StartDaemon("roundtrip");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    const he::HeParams params = SmallParams();
    Result<u64> session = client->CreateSession(params);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    he::BgvScheme scheme(client->context(), /*seed=*/42);
    he::SecretKey sk = scheme.KeyGen();
    he::RelinKey rk = scheme.MakeRelinKey(sk);
    const Status loaded = client->LoadKeys(rk);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    he::Plaintext a(params.degree), b(params.degree);
    for (std::size_t i = 0; i < params.degree; ++i) {
        a[i] = (3 * i + 1) % params.plain_modulus;
        b[i] = (5 * i + 2) % params.plain_modulus;
    }
    he::Ciphertext ct_a = scheme.Encrypt(sk, a);
    he::Ciphertext ct_b = scheme.Encrypt(sk, b);

    // Remote: slot 2 = a*b, slot 3 = relin, slot 4 = modswitch.
    Result<u64> request = client->SubmitGraph(
        {ct_a, ct_b},
        {{WireOp::kMul, 0, 1},
         {WireOp::kRelin, 2, 0},
         {WireOp::kModSwitch, 3, 0}},
        {4});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    ASSERT_EQ(outputs->size(), 1u);

    // Local reference evaluation over the same ciphertexts.
    const he::Ciphertext expected =
        scheme.ModSwitch(scheme.Relinearize(scheme.Mul(ct_a, ct_b), rk));
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              scheme.Decrypt(sk, expected));

    Result<WireStats> stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->requests_completed, 1u);
    EXPECT_EQ(stats->requests_failed, 0u);
}

TEST_F(ServeE2E, ConcurrentClientsCoalesceIntoSharedBatches)
{
    // Group commit: requests that arrive while the worker executes a
    // batch form the next batch together. Hold the worker with one
    // long request, let six small clients submit behind it, and the
    // stats must show them sharing a batch.
    StartDaemon("batch");

    const he::HeParams params = SmallParams();
    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<Status> outcomes(kClients);
    Mutex gate_mutex;
    CondVar gate_cv;
    int ready = 0;
    bool open = false;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Result<std::unique_ptr<Client>> client =
                Client::Connect(daemon_->socket_path());
            Result<u64> session =
                client.ok() ? (*client)->CreateSession(params)
                            : Result<u64>(client.status());
            {
                MutexLock lock(gate_mutex);
                ++ready;
                gate_cv.notify_all();
                while (!open) {
                    gate_cv.wait(gate_mutex);
                }
            }
            if (!session.ok()) {
                outcomes[c] = session.status();
                return;
            }
            he::BgvScheme scheme((*client)->context(),
                                 /*seed=*/100 + c);
            he::SecretKey sk = scheme.KeyGen();
            he::Plaintext m(params.degree, static_cast<u64>(c + 1));
            he::Ciphertext ct = scheme.Encrypt(sk, m);
            // Keyless program (Add): batches across every client
            // regardless of their (distinct, unloaded) keys.
            Result<u64> request = (*client)->SubmitGraph(
                {ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
            if (!request.ok()) {
                outcomes[c] = request.status();
                return;
            }
            Result<std::vector<he::Ciphertext>> outputs =
                (*client)->AwaitDone(*request);
            if (!outputs.ok()) {
                outcomes[c] = outputs.status();
                return;
            }
            he::Plaintext expected(params.degree,
                                   static_cast<u64>(2 * (c + 1)) %
                                       params.plain_modulus);
            if (scheme.Decrypt(sk, outputs->front()) != expected) {
                outcomes[c] = Status(ErrorCode::kInternal,
                                     "decrypted sum mismatch");
            }
        });
    }
    {
        // Every small client is connected with a session before the
        // worker is occupied, so the submits below are one round trip
        // each.
        MutexLock lock(gate_mutex);
        while (ready < kClients) {
            gate_cv.wait(gate_mutex);
        }
    }
    std::unique_ptr<Client> busy = OccupyWorker();
    ASSERT_NE(busy, nullptr);
    {
        MutexLock lock(gate_mutex);
        open = true;
    }
    gate_cv.notify_all();
    for (std::thread &thread : threads) {
        thread.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_TRUE(outcomes[c].ok())
            << "client " << c << ": " << outcomes[c].ToString();
    }
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.requests_completed,
              static_cast<u64>(kClients + 1));
    // The batching proof: at least one batch held >1 request. (All six
    // submit while the long request executes, so in practice they form
    // one batch of six; >1 is the robust floor.)
    EXPECT_GT(stats.max_batch_observed, 1u)
        << "no cross-client coalescing observed: "
        << stats.batches_executed << " batches for " << kClients + 1
        << " requests";
    EXPECT_GT(stats.coalesced_requests, 0u);
}

TEST_F(ServeE2E, ErrorsArriveAsStatusWithDaemonProvenance)
{
    StartDaemon("errors");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);

    // Misuse before a session exists: precise precondition failures.
    {
        auto ctx = std::make_shared<const he::HeContext>(SmallParams());
        he::BgvScheme scheme(ctx, 5);
        he::SecretKey sk = scheme.KeyGen();
        const Status status = client->LoadKeys(scheme.MakeRelinKey(sk));
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
        EXPECT_FALSE(status.frames().empty())
            << "daemon-side provenance lost: " << status.ToString();
    }

    // Invalid parameters: rejected via serde validation as
    // kInvalidArgument, connection stays up.
    he::HeParams bad = SmallParams();
    bad.degree = 63;  // not a power of two
    Result<u64> bad_session = client->CreateSession(bad);
    ASSERT_FALSE(bad_session.ok());
    EXPECT_EQ(bad_session.status().code(),
              ErrorCode::kInvalidArgument);

    // The same connection still serves: create a real session.
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    // Key-switching without keys: fail-fast at submit.
    he::BgvScheme scheme(client->context(), 6);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 1));
    Result<u64> keyless = client->SubmitGraph(
        {ct, ct}, {{WireOp::kMul, 0, 1}, {WireOp::kRelin, 2, 0}}, {3});
    ASSERT_FALSE(keyless.ok());
    EXPECT_EQ(keyless.status().code(),
              ErrorCode::kFailedPrecondition);

    // Unknown request id: a polling error, not a hang.
    Result<Client::Outcome> unknown = client->Poll(991199);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(),
              ErrorCode::kFailedPrecondition);

    // After all that abuse the daemon still answers.
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, PollIsScopedToTheOwningSession)
{
    // Request ids are sequential, so a misbehaving client can guess
    // another session's id; polling it must neither reveal nor
    // consume the foreign result (the per-session isolation
    // guarantee of the multi-client server).
    StartDaemon("poll-scope");
    std::unique_ptr<Client> owner = NewClient();
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(owner->context(), /*seed=*/12);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 7));
    Result<u64> request =
        owner->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    // Let the request settle daemon-side, so the thief below targets
    // a done (undelivered) result — the worst case.
    EXPECT_TRUE(EventuallyTrue([this] {
        return daemon_->Stats().requests_completed == 1;
    }));

    // A connection with no session at all is rejected outright.
    std::unique_ptr<Client> thief = NewClient();
    ASSERT_NE(thief, nullptr);
    Result<Client::Outcome> no_session = thief->Poll(*request);
    ASSERT_FALSE(no_session.ok());
    EXPECT_EQ(no_session.status().code(),
              ErrorCode::kFailedPrecondition);

    // With its own session, the foreign id reads as unknown — same
    // answer a nonexistent id gets, so ids enumerate nothing.
    ASSERT_TRUE(thief->CreateSession(SmallParams()).ok());
    Result<Client::Outcome> stolen = thief->Poll(*request);
    ASSERT_FALSE(stolen.ok());
    EXPECT_EQ(stolen.status().code(),
              ErrorCode::kFailedPrecondition);

    // The theft attempts consumed nothing: the owner still collects
    // and decrypts its result.
    Result<std::vector<he::Ciphertext>> outputs =
        owner->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 14));
}

TEST_F(ServeE2E, AwaitIsScopedAndNeverBlocksOnForeignIds)
{
    // kAwait blocks the connection until the request settles — but
    // only for the owner. A foreign or unknown id must come back as
    // "unknown request id" at once (never wait out someone else's
    // request) and must not consume the owner's result.
    StartDaemon("await-scope");
    std::unique_ptr<Client> owner = NewClient();
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(owner->context(), /*seed=*/13);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 9));
    std::unique_ptr<Client> thief = NewClient();
    ASSERT_NE(thief, nullptr);

    // The owner's request queues behind a long one: while the thief
    // awaits it, it is in flight, not settled.
    std::unique_ptr<Client> busy = OccupyWorker();
    ASSERT_NE(busy, nullptr);
    Result<u64> request =
        owner->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();

    // No session at all: rejected outright.
    Result<std::vector<he::Ciphertext>> no_session =
        thief->AwaitDone(*request);
    ASSERT_FALSE(no_session.ok());
    EXPECT_EQ(no_session.status().code(),
              ErrorCode::kFailedPrecondition);

    // Own session, foreign id, and an id that never existed: the same
    // immediate answer.
    ASSERT_TRUE(thief->CreateSession(SmallParams()).ok());
    Result<std::vector<he::Ciphertext>> stolen =
        thief->AwaitDone(*request);
    ASSERT_FALSE(stolen.ok());
    EXPECT_EQ(stolen.status().code(), ErrorCode::kFailedPrecondition);
    Result<std::vector<he::Ciphertext>> unknown =
        thief->AwaitDone(991199);
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(), ErrorCode::kFailedPrecondition);
    // Had either await blocked until a request settled, the long
    // request at least would have completed by now.
    EXPECT_EQ(daemon_->Stats().requests_completed, 0u)
        << "a foreign-id await waited for a request to settle";

    // Nothing was consumed: the owner collects and decrypts.
    Result<std::vector<he::Ciphertext>> outputs =
        owner->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 18));
}

TEST_F(ServeE2E, AwaitOfARequestQueuedAtShutdownSettlesUnavailable)
{
    // A daemon stopping with work still queued must release every
    // blocked kAwait: the queued request settles as kUnavailable, the
    // await returns, and the daemon's teardown completes.
    StartDaemon("await-stop");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(client->context(), /*seed=*/14);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 1));

    std::unique_ptr<Client> busy = OccupyWorker();
    ASSERT_NE(busy, nullptr);
    Result<u64> request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Status awaited;
    std::thread waiter([&client, &request, &awaited] {
        awaited = client->AwaitDone(*request).status();
    });
    daemon_->Stop();
    waiter.join();
    // Either the daemon's kError reply or, if teardown closed the
    // socket first, the transport's EOF — both read kUnavailable.
    ASSERT_FALSE(awaited.ok());
    EXPECT_EQ(awaited.code(), ErrorCode::kUnavailable)
        << awaited.ToString();
}

TEST_F(ServeE2E, MalformedFrameBytesGetErrorReplyAndDaemonSurvives)
{
    StartDaemon("badbytes");

    // Raw socket speaking garbage after a valid handshake.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon_->socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    Result<u32> version = ClientHandshake(fd);
    ASSERT_TRUE(version.ok()) << version.status().ToString();

    // A frame header claiming an unknown type: the daemon must answer
    // with a kError frame before closing this connection.
    const u8 garbage[6] = {0, 0, 0, 0, kProtocolVersion, 0xEE};
    ASSERT_TRUE(WriteAll(fd, garbage).ok());
    Result<Frame> reply = ReadFrame(fd);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kError);
    Result<WireStatus> ws = DecodeStatus(reply->payload);
    ASSERT_TRUE(ws.ok());
    EXPECT_EQ(static_cast<ErrorCode>(ws->code),
              ErrorCode::kInvalidArgument);
    ::close(fd);

    // The daemon survives for well-behaved clients.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, DyingConnectionLeavesNoOrphanedSession)
{
    StartDaemon("orphans");
    {
        std::unique_ptr<Client> client = NewClient();
        ASSERT_NE(client, nullptr);
        Result<u64> session = client->CreateSession(SmallParams());
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_TRUE(EventuallyTrue(
            [this] { return daemon_->Stats().sessions_active == 1; }));
        // Client destructor closes the socket with no CloseSession —
        // the abrupt-death path.
    }
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }))
        << "session survived its connection";
    EXPECT_EQ(daemon_->Stats().sessions_created, 1u);

    // Explicit CloseSession also releases, with the connection alive.
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 1; }));
    EXPECT_TRUE(client->CloseSession().ok());
    EXPECT_TRUE(EventuallyTrue(
        [this] { return daemon_->Stats().sessions_active == 0; }));
    EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeE2E, ShutdownOverTheWire)
{
    StartDaemon("shutdown");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Shutdown().ok());
    daemon_->Wait();
    // A fresh connect must fail — the socket is gone.
    Result<std::unique_ptr<Client>> late =
        Client::Connect(daemon_->socket_path());
    EXPECT_FALSE(late.ok());
    daemon_.reset();
}

TEST_F(ServeE2E, InjectedFaultsSurfaceAsWireStatus)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 9);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 2));

    // Deterministic: the very next pass over serve.request fires. The
    // injected fault must come back as a kInjected Status with
    // provenance — over the wire, not as a dropped connection.
    fp::ArmNth(fp::kServeRequest, 1);
    Result<u64> injected =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(injected.status().code(), ErrorCode::kInjected)
        << injected.status().ToString();
    EXPECT_FALSE(injected.status().frames().empty());
    fp::DisarmAll();

    // Connection and daemon both survive; the same request now runs.
    Result<u64> retry =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*retry);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 4));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, ChaosSweepNeverKillsTheDaemon)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoints not compiled in "
                        "(-DHENTT_FAILPOINTS=ON)";
    }
    StartDaemon("chaos-sweep");
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    Result<u64> session = client->CreateSession(SmallParams());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    he::BgvScheme scheme(client->context(), 10);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 3));

    // Probabilistic sweep: every outcome must be either success or a
    // clean kInjected Status; the daemon must survive all of it. A
    // request crosses the armed site three times (submit handler,
    // coalescer admission, the await round trip), so a fixed
    // iteration count can land all-injected; sweep until both
    // outcomes have occurred, capped.
    fp::SeedRng(0xC0FFEE);
    fp::Arm(fp::kServeRequest, 0.4);
    int injected = 0, succeeded = 0;
    for (int i = 0;
         i < 200 && (injected == 0 || succeeded == 0); ++i) {
        Result<u64> request =
            client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
        if (!request.ok()) {
            EXPECT_EQ(request.status().code(), ErrorCode::kInjected)
                << request.status().ToString();
            ++injected;
            continue;
        }
        Result<std::vector<he::Ciphertext>> outputs =
            client->AwaitDone(*request);
        if (!outputs.ok()) {
            EXPECT_EQ(outputs.status().code(), ErrorCode::kInjected)
                << outputs.status().ToString();
            ++injected;
            continue;
        }
        ++succeeded;
    }
    fp::DisarmAll();
    EXPECT_GT(injected, 0) << "p=0.4 over 200 sweeps never fired";
    EXPECT_GT(succeeded, 0)
        << "no request survived 200 sweeps at p=0.4";
    // No-fault epilogue: service is fully intact.
    Result<u64> final_request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(final_request.ok())
        << final_request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*final_request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 6));
    EXPECT_EQ(daemon_->Stats().sessions_active, 1u);
}

TEST_F(ServeE2E, UnbatchedAblationStillServes)
{
    // coalesce=false (the bench baseline) must be functionally
    // identical — only slower.
    BatchConfig batch;
    batch.coalesce = false;
    StartDaemon("nobatch", batch);
    std::unique_ptr<Client> client = NewClient();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateSession(SmallParams()).ok());
    he::BgvScheme scheme(client->context(), 11);
    he::SecretKey sk = scheme.KeyGen();
    he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 5));
    Result<u64> request =
        client->SubmitGraph({ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    Result<std::vector<he::Ciphertext>> outputs =
        client->AwaitDone(*request);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    EXPECT_EQ(scheme.Decrypt(sk, outputs->front()),
              he::Plaintext(SmallParams().degree, 10));
    const WireStats stats = daemon_->Stats();
    EXPECT_EQ(stats.coalesced_requests, 0u);
    EXPECT_EQ(stats.max_batch_observed, 1u);
}

// ------------------------------------------- in-process Coalescer tests

TEST(Coalescer, OverLimitSubmitIsShedAndLaterRequestsAreServed)
{
    // The admission queue is bounded: with max_queue requests already
    // waiting behind a busy worker, the next Submit is shed with
    // kResourceExhausted (provenance: Coalescer::Submit). Shedding is
    // per request — the queued ones still run, and once the queue
    // drains new submits are admitted again.
    BatchConfig config;
    config.max_queue = 4;
    auto arena = std::make_shared<he::ScratchArena>();
    SessionManager sessions(arena);
    Coalescer coalescer(config, arena);
    coalescer.Start();

    Result<std::shared_ptr<Session>> large =
        sessions.Create(LargeParams());
    ASSERT_TRUE(large.ok()) << large.status().ToString();
    const BusyProgram busy((*large)->ctx);
    (*large)->SetRelinKey(busy.rk);
    Result<std::shared_ptr<Session>> small =
        sessions.Create(SmallParams());
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    he::BgvScheme scheme((*small)->ctx, /*seed=*/15);
    const he::SecretKey sk = scheme.KeyGen();
    const he::Ciphertext ct =
        scheme.Encrypt(sk, he::Plaintext(SmallParams().degree, 4));
    const auto submit_small = [&] {
        return coalescer.Submit(*small, {ct, ct},
                                {{WireOp::kAdd, 0, 1}}, {2});
    };

    Result<u64> busy_id =
        coalescer.Submit(*large, busy.inputs, busy.ops, busy.outputs);
    ASSERT_TRUE(busy_id.ok()) << busy_id.status().ToString();
    ASSERT_TRUE(EventuallyTrue([&coalescer] {
        return coalescer.StatsSnapshot().batches_executed == 1;
    }));

    std::vector<u64> queued;
    for (std::size_t i = 0; i < config.max_queue; ++i) {
        Result<u64> id = submit_small();
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        queued.push_back(*id);
    }
    Result<u64> shed = submit_small();
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), ErrorCode::kResourceExhausted)
        << shed.status().ToString();
    ASSERT_FALSE(shed.status().frames().empty());
    EXPECT_EQ(shed.status().frames().front(), "Coalescer::Submit");
    EXPECT_EQ(coalescer.StatsSnapshot().requests_submitted,
              1u + config.max_queue);

    EXPECT_TRUE(coalescer.Wait(*busy_id, (*large)->id).status.ok());
    const he::Plaintext sum(SmallParams().degree, 8);
    for (const u64 id : queued) {
        PollResult result = coalescer.Wait(id, (*small)->id);
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_EQ(scheme.Decrypt(sk, result.outputs.front()), sum);
    }
    Result<u64> later = submit_small();
    ASSERT_TRUE(later.ok()) << later.status().ToString();
    PollResult result = coalescer.Wait(*later, (*small)->id);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(scheme.Decrypt(sk, result.outputs.front()), sum);
    coalescer.Stop();
}

TEST(Coalescer, StopSettlesQueuedRequestsAndReleasesWaiters)
{
    // A blocked Wait on a request still queued when the coalescer stops
    // returns kUnavailable from the stop drain — the guarantee the
    // daemon's kAwait relies on to never strand a connection thread.
    auto arena = std::make_shared<he::ScratchArena>();
    SessionManager sessions(arena);
    Coalescer coalescer(BatchConfig{}, arena);
    coalescer.Start();
    Result<std::shared_ptr<Session>> large =
        sessions.Create(LargeParams());
    ASSERT_TRUE(large.ok()) << large.status().ToString();
    const BusyProgram busy((*large)->ctx);
    (*large)->SetRelinKey(busy.rk);
    Result<std::shared_ptr<Session>> small =
        sessions.Create(SmallParams());
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    he::BgvScheme scheme((*small)->ctx, /*seed=*/16);
    const he::Ciphertext ct = scheme.Encrypt(
        scheme.KeyGen(), he::Plaintext(SmallParams().degree, 1));

    ASSERT_TRUE(
        coalescer.Submit(*large, busy.inputs, busy.ops, busy.outputs)
            .ok());
    ASSERT_TRUE(EventuallyTrue([&coalescer] {
        return coalescer.StatsSnapshot().batches_executed == 1;
    }));
    Result<u64> queued =
        coalescer.Submit(*small, {ct, ct}, {{WireOp::kAdd, 0, 1}}, {2});
    ASSERT_TRUE(queued.ok()) << queued.status().ToString();
    PollResult waited;
    std::thread waiter([&] {
        waited = coalescer.Wait(*queued, (*small)->id);
    });
    coalescer.Stop();
    waiter.join();
    ASSERT_TRUE(waited.done);
    EXPECT_EQ(waited.status.code(), ErrorCode::kUnavailable)
        << waited.status.ToString();
    EXPECT_EQ(coalescer.StatsSnapshot().batches_executed, 1u)
        << "the queued request executed instead of settling";
}

}  // namespace
}  // namespace hentt::serve
