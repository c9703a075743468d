/**
 * @file
 * hebench_load — the load generator behind hebench/run.py.
 *
 *   hebench_load --workload NAME --seed N --seconds S --trace 0|1
 *                --daemon PATH --socket PATH --out PATH
 *
 * Runs one workload (serve_small, tower_n16k; see README.md)
 * and writes its raw measurements as one JSON object to --out: set-up
 * times, per-request timestamps of every open-loop step, tower sample
 * latencies, layer probe figures and, when traced, every span. All
 * statistics (percentiles, the max-rate rule, span attribution) are
 * computed from that file by run.py / stats.py, so this program holds
 * no statistics of its own.
 *
 * The program under test is reached only through public hentt
 * interfaces: the hentt-daemon process over its unix socket
 * (serve::Client), serve serde/wire codecs, HeOpGraph, the Batch*
 * kernels, NttEngine / GetNttOpCounts, the SIMD kernel table and
 * ParallelFor. Expected outputs come from oracle.h.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"
#include "serve/client.h"
#include "serve/serde.h"
#include "serve/wire.h"
#include "simd/simd_backend.h"

#include "oracle.h"
#include "spans.h"

namespace hebench {
namespace {

using hentt::u64;
using hentt::Xoshiro256;
using hentt::he::BgvScheme;
using hentt::he::Ciphertext;
using hentt::he::CtFuture;
using hentt::he::HeContext;
using hentt::he::HeOpGraph;
using hentt::he::HeParams;
using hentt::he::RelinKey;
using hentt::he::SecretKey;
namespace serve = hentt::serve;

double
Ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
MsSince(std::int64_t start_ns)
{
    return Ms(NowNs() - start_ns);
}

std::size_t
Nproc()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

double
Median(std::vector<double> v)
{
    if (v.empty()) {
        throw std::runtime_error("median of no samples");
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median wall time of @p reps calls of @p fn, in ms. */
double
MedianMs(int reps, const std::function<void()> &fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = NowNs();
        fn();
        ms.push_back(MsSince(t0));
    }
    return Median(ms);
}

/** Peak resident set (VmHWM) of @p pid in MiB. */
double
PeakRssMib(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

// ---------------------------------------------------------------------
// Raw JSON output.
// ---------------------------------------------------------------------

std::string
Num(double v)
{
    if (!std::isfinite(v)) {
        throw std::runtime_error("non-finite measurement");
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

class JsonObject
{
  public:
    void Add(const std::string &key, double v) { Raw(key, Num(v)); }
    void Add(const std::string &key, const std::vector<double> &v)
    {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) {
                s += ',';
            }
            s += Num(v[i]);
        }
        Raw(key, s + "]");
    }
    void Raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty()) {
            body_ += ',';
        }
        body_ += "\"" + key + "\":" + json;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
JsonArray(const std::vector<std::string> &items)
{
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) {
            s += ',';
        }
        s += items[i];
    }
    return s + "]";
}

// ---------------------------------------------------------------------
// Inputs and the oracle.
// ---------------------------------------------------------------------

Poly
RandomPlain(std::size_t n, u64 t, Xoshiro256 &rng)
{
    Poly m(n);
    for (u64 &x : m) {
        x = rng.NextBelow(t);
    }
    return m;
}

bool
SameCiphertext(const Ciphertext &x, const Ciphertext &y)
{
    if (x.parts.size() != y.parts.size()) {
        return false;
    }
    for (std::size_t j = 0; j < x.parts.size(); ++j) {
        const auto fx = x.parts[j].flat();
        const auto fy = y.parts[j].flat();
        if (x.parts[j].domain() != y.parts[j].domain() ||
            !std::equal(fx.begin(), fx.end(), fy.begin(), fy.end())) {
            return false;
        }
    }
    return true;
}

/**
 * Output check: @p ct must decrypt to @p want. Evaluation is
 * deterministic, so the same input and program give the same ciphertext
 * every time; an output bit-identical to the one already decrypted and
 * verified under @p key is as good as decrypted, which keeps the
 * checker's CPU time (a CRT composition per coefficient) off the cores
 * the program under test runs on. Anything else is decrypted.
 */
bool
Matches(const BgvScheme &scheme, const SecretKey &sk, const Ciphertext &ct,
        const Poly &want, std::map<u64, Ciphertext> &verified, u64 key)
{
    const auto it = verified.find(key);
    if (it != verified.end() && SameCiphertext(it->second, ct)) {
        return true;
    }
    if (scheme.Decrypt(sk, ct) != want) {
        return false;
    }
    if (it == verified.end()) {
        verified.emplace(key, ct);
    }
    return true;
}

// ---------------------------------------------------------------------
// The hentt-daemon process.
// ---------------------------------------------------------------------

/** A spawned hentt-daemon; the destructor stops and reaps it. */
class DaemonProcess
{
  public:
    /** @p single_thread starts it with HENTT_THREADS=1 (one pool lane). */
    DaemonProcess(const std::string &binary, const std::string &socket,
                  bool single_thread)
    {
        ::unlink(socket.c_str());
        std::vector<char *> argv = {
            const_cast<char *>(binary.c_str()),
            const_cast<char *>("--socket"),
            const_cast<char *>(socket.c_str()), nullptr};
        // The child only execs, so its environment is built here.
        std::vector<std::string> env_store;
        for (char **e = environ; *e != nullptr; ++e) {
            if (std::strncmp(*e, "HENTT_THREADS=", 14) != 0) {
                env_store.emplace_back(*e);
            }
        }
        if (single_thread) {
            env_store.emplace_back("HENTT_THREADS=1");
        }
        std::vector<char *> envp;
        for (std::string &e : env_store) {
            envp.push_back(e.data());
        }
        envp.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            // The daemon's banner must not reach the benchmark's stdout.
            const int null_fd = ::open("/dev/null", O_WRONLY);
            if (null_fd >= 0) {
                ::dup2(null_fd, STDOUT_FILENO);
            }
            ::execve(binary.c_str(), argv.data(), envp.data());
            ::_exit(127);
        }
    }

    ~DaemonProcess() { Stop(); }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    pid_t pid() const { return pid_; }

    /** SIGTERM, then wait (SIGKILL after 10 s). */
    void Stop()
    {
        if (pid_ <= 0) {
            return;
        }
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 1000; ++i) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

std::unique_ptr<serve::Client>
ConnectWithRetry(const std::string &socket)
{
    const std::int64_t deadline = NowNs() + 20'000'000'000LL;
    for (;;) {
        auto client = serve::Client::Connect(socket);
        if (client.ok()) {
            return std::move(*client);
        }
        if (NowNs() > deadline) {
            throw std::runtime_error("daemon not reachable: " +
                                     client.status().ToString());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

template <typename T>
T
Unwrap(hentt::Result<T> r, const char *what)
{
    if (!r.ok()) {
        throw std::runtime_error(std::string(what) + ": " +
                                 r.status().ToString());
    }
    return std::move(*r);
}

void
Check(const hentt::Status &s, const char *what)
{
    if (!s.ok()) {
        throw std::runtime_error(std::string(what) + ": " + s.ToString());
    }
}

// ---------------------------------------------------------------------
// Served programs.
// ---------------------------------------------------------------------

enum class Prog : unsigned {
    kAdd = 0,
    kMulModSwitch = 1,
    kMulRelinModSwitch = 2,
};

const std::vector<serve::WireProgram::Op> &
ProgOps(Prog p)
{
    using serve::WireOp;
    static const std::vector<serve::WireProgram::Op> kAdd = {
        {WireOp::kAdd, 0, 1}};
    static const std::vector<serve::WireProgram::Op> kMulMs = {
        {WireOp::kMul, 0, 1}, {WireOp::kModSwitch, 2, 0}};
    static const std::vector<serve::WireProgram::Op> kMulRelinMs = {
        {WireOp::kMul, 0, 1},
        {WireOp::kRelin, 2, 0},
        {WireOp::kModSwitch, 3, 0}};
    switch (p) {
      case Prog::kAdd:
        return kAdd;
      case Prog::kMulModSwitch:
        return kMulMs;
      default:
        return kMulRelinMs;
    }
}

std::vector<std::uint32_t>
ProgOutputs(Prog p)
{
    return {static_cast<std::uint32_t>(1 + ProgOps(p).size())};
}

/** One open-loop workload's shape. */
struct ServeShape {
    HeParams params;
    std::size_t conns = 1;   ///< connections = sessions = load threads
    std::size_t pool = 8;    ///< input pairs per session
    std::vector<double> ladder;  ///< offered rates, req/s, ascending
    unsigned weight[3] = {1, 1, 0};  ///< mix, indexed by Prog
    bool load_keys = true;
};

struct Session {
    std::unique_ptr<serve::Client> client;
    std::unique_ptr<BgvScheme> scheme;
    std::optional<SecretKey> sk;  ///< set by KeyGen
    RelinKey rk;
    std::vector<std::vector<Ciphertext>> inputs;  ///< pool: {a, b}
    std::vector<Poly> want_add, want_mul;
    /** Verified outputs by (pool index, program); see Matches. */
    std::map<u64, Ciphertext> verified;
};

struct ServeSetup {
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<Session> sessions;
    double setup_s = 0;
    double engine_state_ms = 0;
    double relin_keygen_ms = 0;
    double load_keys_ms = 0;
};

/**
 * Start the daemon and bring every session to the point where the first
 * request can be sent: connect, create the session (the daemon builds
 * its engine state and twiddle tables), key generation and key upload.
 * This is what setup_s times.
 */
ServeSetup
SetUpServe(const ServeShape &shape, const std::string &daemon_bin,
           const std::string &socket, u64 seed, bool single_thread = false)
{
    ServeSetup s;
    Span span("setup", 0);
    const std::int64_t t0 = NowNs();
    s.daemon =
        std::make_unique<DaemonProcess>(daemon_bin, socket, single_thread);
    std::vector<double> keygen, load;
    for (std::size_t c = 0; c < shape.conns; ++c) {
        Session ses;
        ses.client = ConnectWithRetry(socket);
        {
            Span sp("setup.engine_state", 0);
            const std::int64_t e0 = NowNs();
            Unwrap(ses.client->CreateSession(shape.params), "CreateSession");
            if (c == 0) {
                s.engine_state_ms = MsSince(e0);
            }
        }
        ses.scheme = std::make_unique<BgvScheme>(ses.client->context(),
                                                 seed * 31 + c + 1);
        ses.sk = ses.scheme->KeyGen();
        if (shape.load_keys) {
            {
                Span sp("setup.relin_keygen", 0);
                const std::int64_t k0 = NowNs();
                ses.rk = ses.scheme->MakeRelinKey(*ses.sk);
                keygen.push_back(MsSince(k0));
            }
            Span sp("setup.load_keys", 0);
            const std::int64_t l0 = NowNs();
            Check(ses.client->LoadKeys(ses.rk), "LoadKeys");
            load.push_back(MsSince(l0));
        }
        s.sessions.push_back(std::move(ses));
    }
    s.setup_s = MsSince(t0) * 1e-3;
    if (!keygen.empty()) {
        s.relin_keygen_ms = Median(keygen);
        s.load_keys_ms = Median(load);
    }
    return s;
}

void
TearDownServe(ServeSetup &s)
{
    if (!s.sessions.empty()) {
        // Graceful stop over the wire; Stop() below reaps the process
        // (and signals it if the shutdown frame was lost).
        (void)s.sessions.front().client->Shutdown();
    }
    s.sessions.clear();
    if (s.daemon) {
        s.daemon->Stop();
    }
}

/** Seeded input pool plus expected plaintexts (outside all timers). */
void
MakePools(ServeSetup &s, const ServeShape &shape, u64 seed)
{
    const std::size_t n = shape.params.degree;
    const u64 t = shape.params.plain_modulus;
    for (std::size_t c = 0; c < s.sessions.size(); ++c) {
        Session &ses = s.sessions[c];
        Xoshiro256 rng(seed * 1000003 + c);
        for (std::size_t i = 0; i < shape.pool; ++i) {
            const Poly a = RandomPlain(n, t, rng);
            const Poly b = RandomPlain(n, t, rng);
            ses.inputs.push_back({ses.scheme->Encrypt(*ses.sk, a),
                                  ses.scheme->Encrypt(*ses.sk, b)});
            ses.want_add.push_back(AddMod(a, b, t));
            ses.want_mul.push_back(NegacyclicMul(a, b, t));
        }
    }
}

struct Request {
    std::int64_t due = 0;
    std::int64_t sent = -1;  ///< -1: never sent (generator gave up)
    std::int64_t submitted = -1;
    std::int64_t done = -1;
    std::uint32_t conn = 0;
    std::uint32_t pool = 0;
    std::uint32_t polls = 0;
    Prog prog = Prog::kAdd;
    bool idle = false;  ///< the generator slept until it was due
    bool ok = false;
    bool wrong = false;  ///< completed, but the output did not decrypt right
};

/**
 * Poisson arrivals at @p rate for @p seconds from @p start_ns, each with
 * a seeded program and input: independent users. (Constant spacing
 * resonates with the coalescer's 2 ms admission window: batch sizes,
 * and with them capacity, then swing with the rate's phase.)
 */
std::vector<Request>
Schedule(const ServeShape &shape, double rate, double seconds,
         std::int64_t start_ns, Xoshiro256 &rng)
{
    std::vector<Request> reqs;
    const unsigned total =
        shape.weight[0] + shape.weight[1] + shape.weight[2];
    double at = 0;
    for (std::size_t i = 0;; ++i) {
        const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
        at += -std::log1p(-u) / rate;
        if (at >= seconds) {
            break;
        }
        Request r;
        r.due = start_ns + static_cast<std::int64_t>(at * 1e9);
        r.conn = static_cast<std::uint32_t>(i % shape.conns);
        r.pool = static_cast<std::uint32_t>(rng.NextBelow(shape.pool));
        unsigned pick = static_cast<unsigned>(rng.NextBelow(total));
        unsigned k = 0;
        while (pick >= shape.weight[k]) {
            pick -= shape.weight[k++];
        }
        r.prog = static_cast<Prog>(k);
        reqs.push_back(r);
    }
    return reqs;
}

constexpr std::size_t kMaxInflightPerConn = 8;

/** Share of --seconds the serve workloads spend on the single-thread
 *  daemon. */
constexpr double kOneThreadShare = 0.12;

/** Share of --seconds for the lowest rate, lengthened if need be to
 *  offer kLowRateRequests there: its p99 (which decides whether the rate
 *  is met) needs 1000 with 10 beyond; the margin covers the Poisson
 *  count's spread. */
constexpr double kLowRateShare = 0.45;
constexpr double kLowRateRequests = 1150;

/** Batch of the serve workloads' in-process layer probe. */
constexpr std::size_t kServeProbeBatch = 4;

struct PollTiming {
    std::int64_t start, end;
};

/** Await one request and check its output; records spans if traced. */
void
Complete(Session &ses, Request &r, u64 id, u64 span_req, bool traced)
{
    const std::int64_t await_start = NowNs();
    hentt::Result<std::vector<Ciphertext>> out =
        hentt::Status(hentt::ErrorCode::kInternal, "unset");
    std::vector<PollTiming> polls;
    if (!traced) {
        out = ses.client->AwaitDone(id);
    } else {
        // Client::AwaitDone's own loop (Poll, 200 us sleep), unrolled
        // so every poll round trip is a span.
        for (;;) {
            const std::int64_t p0 = NowNs();
            auto o = ses.client->Poll(id);
            polls.push_back({p0, NowNs()});
            if (!o.ok()) {
                out = o.status();
                break;
            }
            if (o->done) {
                out = std::move(o->outputs);
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        r.polls = static_cast<std::uint32_t>(polls.size());
    }
    r.done = NowNs();
    if (traced) {
        const u64 root = Span::Record("request", span_req, r.due, r.done, 0);
        Span::Record("gen.queue", span_req, r.due, r.sent, root);
        Span::Record("client.submit", span_req, r.sent, r.submitted, root);
        const u64 aw =
            Span::Record("client.await", span_req, await_start, r.done, root);
        for (const PollTiming &p : polls) {
            Span::Record("client.poll", span_req, p.start, p.end, aw);
        }
    }
    if (!out.ok()) {
        std::fprintf(stderr, "request failed: %s\n",
                     out.status().ToString().c_str());
        return;
    }
    if (out->size() != 1) {
        r.wrong = true;
        std::fprintf(stderr, "expected 1 output, got %zu\n", out->size());
        return;
    }
    const Poly &want = r.prog == Prog::kAdd ? ses.want_add[r.pool]
                                            : ses.want_mul[r.pool];
    r.ok = Matches(*ses.scheme, *ses.sk, out->front(), want, ses.verified,
                   u64{r.pool} * 3 + static_cast<u64>(r.prog));
    r.wrong = !r.ok;
    if (!r.ok) {
        std::fprintf(stderr, "output mismatch (pool %u, prog %u)\n", r.pool,
                     static_cast<unsigned>(r.prog));
    }
}

/** One connection's share of an open-loop step. */
void
LoadWorker(Session &ses, std::vector<Request *> mine, std::int64_t hard_stop,
           bool traced, const Request *base, u64 req_base)
{
    std::size_t next = 0;
    std::deque<std::pair<Request *, u64>> inflight;
    while (next < mine.size() || !inflight.empty()) {
        if (inflight.empty() && next < mine.size() &&
            mine[next]->due > NowNs()) {
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(mine[next]->due)));
            mine[next]->idle = true;
        }
        while (next < mine.size() && inflight.size() < kMaxInflightPerConn &&
               mine[next]->due <= NowNs()) {
            Request &r = *mine[next++];
            if (NowNs() > hard_stop) {
                continue;  // abandoned: counts as missing the limit
            }
            r.sent = NowNs();
            auto id = ses.client->SubmitGraph(ses.inputs[r.pool],
                                              ProgOps(r.prog),
                                              ProgOutputs(r.prog));
            r.submitted = NowNs();
            if (!id.ok()) {
                std::fprintf(stderr, "submit failed: %s\n",
                             id.status().ToString().c_str());
                r.done = r.submitted;
                continue;
            }
            inflight.push_back({&r, *id});
        }
        if (!inflight.empty()) {
            auto [r, id] = inflight.front();
            inflight.pop_front();
            const u64 span_req = req_base + static_cast<u64>(r - base);
            Complete(ses, *r, id, span_req, traced);
        }
    }
}

/** Run one open-loop step; at most `conns` threads, this one included. */
std::vector<Request>
RunStep(ServeSetup &s, const ServeShape &shape, double rate, double seconds,
        Xoshiro256 &rng, bool traced, u64 req_base)
{
    const std::int64_t start = NowNs() + 20'000'000;  // 20 ms lead-in
    std::vector<Request> reqs = Schedule(shape, rate, seconds, start, rng);
    const std::int64_t hard_stop =
        start + static_cast<std::int64_t>((seconds + 1.0) * 1e9);
    std::vector<std::vector<Request *>> per_conn(shape.conns);
    for (Request &r : reqs) {
        per_conn[r.conn].push_back(&r);
    }
    SpanRecorder::Get().Enable(traced);
    // Connection 0 runs on this thread; a worker's exception is carried
    // out and rethrown once every worker has been joined.
    std::vector<std::exception_ptr> errors(shape.conns);
    const auto work = [&](std::size_t c) {
        try {
            LoadWorker(s.sessions[c], per_conn[c], hard_stop, traced,
                       reqs.data(), req_base);
        } catch (...) {
            errors[c] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < shape.conns; ++c) {
        threads.emplace_back(work, c);
    }
    work(0);
    for (std::thread &t : threads) {
        t.join();
    }
    SpanRecorder::Get().Enable(false);
    for (const std::exception_ptr &e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
    for (Request &r : reqs) {
        r.due -= start;
        if (r.sent >= 0) {
            r.sent -= start;
            r.submitted -= start;
            r.done -= start;
        }
    }
    return reqs;
}

std::string
StepJson(double rate, double seconds, std::size_t conns,
         const std::vector<Request> &reqs)
{
    std::vector<double> due, sent, submitted, done, ok, wrong, idle, polls;
    for (const Request &r : reqs) {
        due.push_back(Ms(r.due));
        sent.push_back(r.sent < 0 ? -1.0 : Ms(r.sent));
        submitted.push_back(r.sent < 0 ? -1.0 : Ms(r.submitted));
        done.push_back(r.sent < 0 ? -1.0 : Ms(r.done));
        ok.push_back(r.ok ? 1 : 0);
        wrong.push_back(r.wrong ? 1 : 0);
        idle.push_back(r.idle ? 1 : 0);
        polls.push_back(r.polls);
    }
    JsonObject o;
    o.Add("rate", rate);
    o.Add("seconds", seconds);
    o.Add("conns", double(conns));
    o.Add("due_ms", due);
    o.Add("sent_ms", sent);
    o.Add("submitted_ms", submitted);
    o.Add("done_ms", done);
    o.Add("ok", ok);
    o.Add("wrong", wrong);
    o.Add("idle", idle);
    o.Add("polls", polls);
    return o.str();
}

// ---------------------------------------------------------------------
// In-process layer probe (traced runs).
// ---------------------------------------------------------------------

/**
 * A circuit the probe runs two ways: through HeOpGraph (as the program
 * under test schedules it) and as the equivalent direct Batch* calls,
 * whose summed time is what the graph would cost with no scheduler.
 */
struct Circuit {
    /** Enqueue one instance on @p g; returns its output future. */
    std::function<CtFuture(HeOpGraph &, CtFuture, CtFuture)> build;
    /** Run a batch of instances through Batch* calls; returns the summed
     *  kernel time in ms. */
    std::function<double(const std::vector<const Ciphertext *> &,
                         const std::vector<const Ciphertext *> &)>
        direct;
};

/** Time one Batch* call, as a span named @p name; returns ms. */
double
TimedKernel(const char *name, const std::function<void()> &fn)
{
    Span span(name, 0);
    const std::int64_t t0 = NowNs();
    fn();
    return MsSince(t0);
}

std::vector<Ciphertext *>
Ptrs(std::vector<Ciphertext> &v)
{
    std::vector<Ciphertext *> p;
    for (Ciphertext &c : v) {
        p.push_back(&c);
    }
    return p;
}

Circuit
TowerCircuit(const BgvScheme &scheme, const RelinKey &rk, std::size_t depth)
{
    Circuit c;
    c.build = [&rk, depth](HeOpGraph &g, CtFuture a, CtFuture f) {
        for (std::size_t d = 0; d < depth; ++d) {
            a = g.MulRelinModSwitch(a, f, &rk);
            if (d + 1 < depth) {
                f = g.ModSwitch(f);
            }
        }
        return a;
    };
    c.direct = [&scheme, &rk, depth](const std::vector<const Ciphertext *> &a,
                                     const std::vector<const Ciphertext *> &b) {
        const HeContext &ctx = scheme.context();
        const std::size_t n = a.size();
        std::vector<Ciphertext> acc(a.size()), fac(n), prod(n), next(n);
        for (std::size_t i = 0; i < n; ++i) {
            acc[i] = *a[i];
            fac[i] = *b[i];
        }
        double total = 0;
        for (std::size_t d = 0; d < depth; ++d) {
            const auto acc_p = Ptrs(acc), fac_p = Ptrs(fac),
                       prod_p = Ptrs(prod), next_p = Ptrs(next);
            const std::vector<const Ciphertext *> acc_c(acc_p.begin(),
                                                        acc_p.end()),
                fac_c(fac_p.begin(), fac_p.end()),
                prod_c(prod_p.begin(), prod_p.end());
            total += TimedKernel("batch.mul", [&] {
                hentt::he::BatchMul(ctx, acc_c, fac_c, prod_p);
            });
            total += TimedKernel("batch.relin_modswitch", [&] {
                hentt::he::BatchRelinModSwitch(ctx, rk, prod_c, next_p);
            });
            std::swap(acc, next);
            if (d + 1 < depth) {
                std::vector<Ciphertext> fac2(n);
                total += TimedKernel("batch.modswitch", [&] {
                    hentt::he::BatchModSwitch(ctx, fac_c, Ptrs(fac2));
                });
                fac = std::move(fac2);
            }
        }
        return total;
    };
    return c;
}

Circuit
ServeCircuit(const BgvScheme &scheme, const RelinKey &rk, Prog prog)
{
    Circuit c;
    c.build = [&rk, prog](HeOpGraph &g, CtFuture a, CtFuture b) {
        switch (prog) {
          case Prog::kAdd:
            return g.Add(a, b);
          case Prog::kMulModSwitch:
            return g.ModSwitch(g.Mul(a, b));
          default:
            return g.ModSwitch(g.Relinearize(g.Mul(a, b), &rk));
        }
    };
    c.direct = [&scheme, &rk, prog](const std::vector<const Ciphertext *> &a,
                                    const std::vector<const Ciphertext *> &b) {
        const HeContext &ctx = scheme.context();
        const std::size_t n = a.size();
        std::vector<Ciphertext> prod(n), out(n);
        const auto prod_p = Ptrs(prod);
        const std::vector<const Ciphertext *> prod_c(prod_p.begin(),
                                                     prod_p.end());
        if (prog == Prog::kAdd) {
            return TimedKernel("batch.add", [&] {
                hentt::he::BatchAdd(ctx, a, b, prod_p);
            });
        }
        double total = TimedKernel("batch.mul", [&] {
            hentt::he::BatchMul(ctx, a, b, prod_p);
        });
        if (prog == Prog::kMulModSwitch) {
            total += TimedKernel("batch.modswitch", [&] {
                hentt::he::BatchModSwitch(ctx, prod_c, Ptrs(out));
            });
        } else {
            // The graph fuses Relin→ModSwitch into one stage.
            total += TimedKernel("batch.relin_modswitch", [&] {
                hentt::he::BatchRelinModSwitch(ctx, rk, prod_c, Ptrs(out));
            });
        }
        return total;
    };
    return c;
}

/** Graph execution of @p batch circuit instances; returns ms. */
double
GraphOnce(const BgvScheme &scheme, const RelinKey &rk, const Circuit &c,
          const std::vector<const Ciphertext *> &a,
          const std::vector<const Ciphertext *> &b)
{
    std::vector<Ciphertext> ca, cb;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ca.push_back(*a[i]);
        cb.push_back(*b[i]);
    }
    Span span("graph.execute", 0);
    const std::int64_t t0 = NowNs();
    HeOpGraph g(scheme, &rk);
    std::vector<CtFuture> outs;
    for (std::size_t i = 0; i < a.size(); ++i) {
        outs.push_back(
            c.build(g, g.Input(std::move(ca[i])), g.Input(std::move(cb[i]))));
    }
    Check(g.ExecuteStatus(), "graph execute");
    return MsSince(t0);
}

/** Every in-process layer figure at one workload's shape. */
void
ProbeLayers(BgvScheme &scheme, const SecretKey &sk, const RelinKey &rk,
            const Circuit &circuit, std::size_t batch,
            const unsigned (&mix)[3], u64 seed,
            std::map<std::string, double> &layers)
{
    const HeContext &ctx = scheme.context();
    const HeParams &params = ctx.params();
    const std::size_t n = params.degree;
    const std::size_t nproc = Nproc();
    Xoshiro256 rng(seed * 7919 + 5);

    const u64 t = params.plain_modulus;
    std::vector<Ciphertext> a, b;
    for (std::size_t i = 0; i < batch; ++i) {
        a.push_back(scheme.Encrypt(sk, RandomPlain(n, t, rng)));
        b.push_back(scheme.Encrypt(sk, RandomPlain(n, t, rng)));
    }
    std::vector<const Ciphertext *> ap, bp;
    for (std::size_t i = 0; i < batch; ++i) {
        ap.push_back(&a[i]);
        bp.push_back(&b[i]);
    }
    const int reps = n >= 16384 ? 3 : 15;

    // he_graph vs the same nodes as direct Batch* calls.
    hentt::SetGlobalThreadCount(nproc);
    GraphOnce(scheme, rk, circuit, ap, bp);  // warm the arena
    std::vector<double> graph_ms, direct_ms;
    for (int r = 0; r < reps; ++r) {
        graph_ms.push_back(GraphOnce(scheme, rk, circuit, ap, bp));
        direct_ms.push_back(circuit.direct(ap, bp));
    }
    layers["graph.execute_ms"] = Median(graph_ms);
    layers["graph.overhead_ms"] = Median(graph_ms) - Median(direct_ms);

    // Per-call kernel times at this shape, each kernel on its own input.
    {
        const HeContext &c = ctx;
        std::vector<Ciphertext> prod(batch), relin(batch), out(batch);
        const auto prod_p = Ptrs(prod), relin_p = Ptrs(relin);
        const std::vector<const Ciphertext *> prod_c(prod_p.begin(),
                                                     prod_p.end()),
            relin_c(relin_p.begin(), relin_p.end());
        layers["batch.mul_ms"] = MedianMs(reps, [&] {
            Span s("batch.mul", 0);
            hentt::he::BatchMul(c, ap, bp, prod_p);
        });
        layers["batch.relin_ms"] = MedianMs(reps, [&] {
            Span s("batch.relin", 0);
            hentt::he::BatchRelinearize(c, rk, prod_c, relin_p);
        });
        layers["batch.modswitch_ms"] = MedianMs(reps, [&] {
            Span s("batch.modswitch", 0);
            hentt::he::BatchModSwitch(c, relin_c, Ptrs(out));
        });
        layers["batch.relin_modswitch_ms"] = MedianMs(reps, [&] {
            Span s("batch.relin_modswitch", 0);
            hentt::he::BatchRelinModSwitch(c, rk, prod_c, Ptrs(out));
        });
    }

    // Exact transform / pass counts of one circuit instance.
    {
        const hentt::NttOpCounts before = hentt::GetNttOpCounts();
        GraphOnce(scheme, rk, circuit, {ap[0]}, {bp[0]});
        const hentt::NttOpCounts after = hentt::GetNttOpCounts();
        layers["batch.fwd_rows"] = double(after.forward - before.forward);
        layers["batch.inv_rows"] = double(after.inverse - before.inverse);
        layers["batch.elementwise_rows"] =
            double(after.elementwise - before.elementwise);
        layers["batch.butterfly_stages"] =
            double(after.butterfly_stages - before.butterfly_stages);
    }

    // Thread scaling of the graph at this shape.
    {
        hentt::SetGlobalThreadCount(1);
        GraphOnce(scheme, rk, circuit, ap, bp);
        std::vector<double> one;
        for (int r = 0; r < std::max(3, reps / 3); ++r) {
            one.push_back(GraphOnce(scheme, rk, circuit, ap, bp));
        }
        hentt::SetGlobalThreadCount(nproc);
        layers["pool.scaling_eff"] =
            Median(one) / (double(nproc) * Median(graph_ms));
    }

    // Single-row transforms over more rows than fit in L2 (2 MiB/core).
    {
        const hentt::NttEngine &eng = ctx.ntt_context()->engine(0);
        const u64 p = eng.modulus();
        const std::size_t row_bytes = n * sizeof(u64);
        const std::size_t rows =
            std::max<std::size_t>(16, (8u << 20) / row_bytes);
        std::vector<u64> pristine(rows * n), work(rows * n);
        for (u64 &x : pristine) {
            x = rng.NextBelow(p);
        }
        std::vector<double> fwd, inv, ew;
        u64 stages = 0;
        for (int r = 0; r < 5; ++r) {
            work = pristine;
            const hentt::NttOpCounts c0 = hentt::GetNttOpCounts();
            {
                Span s("ntt.fwd", 0);
                const std::int64_t t0 = NowNs();
                for (std::size_t i = 0; i < rows; ++i) {
                    eng.ForwardLazy({work.data() + i * n, n});
                }
                fwd.push_back(MsSince(t0) * 1e3 / double(rows));
            }
            stages = hentt::GetNttOpCounts().butterfly_stages -
                     c0.butterfly_stages;
            work = pristine;
            {
                Span s("ntt.inv", 0);
                const std::int64_t t0 = NowNs();
                for (std::size_t i = 0; i < rows; ++i) {
                    eng.Inverse({work.data() + i * n, n});
                }
                inv.push_back(MsSince(t0) * 1e3 / double(rows));
            }
            // Element-wise Barrett product, the batch stages' other
            // kernel family, over the same rows.
            const hentt::simd::Kernels &k = hentt::simd::Active();
            const hentt::simd::BarrettConsts bc =
                hentt::simd::Consts(eng.reducer());
            {
                Span s("simd.elementwise", 0);
                const std::int64_t t0 = NowNs();
                for (std::size_t i = 0; i + 1 < rows; ++i) {
                    k.mul_barrett_rows(work.data() + i * n,
                                       pristine.data() + i * n,
                                       pristine.data() + (i + 1) * n, n, bc);
                }
                ew.push_back(MsSince(t0) * 1e3 / double(rows - 1));
            }
        }
        const double fwd_us = Median(fwd);
        layers["ntt.fwd_us"] = fwd_us;
        layers["ntt.inv_us"] = Median(inv);
        layers["simd.elementwise_us_per_row"] = Median(ew);

        // Computed bytes-moved model of one forward transform: every
        // butterfly stage dispatch reads and writes the row once, and
        // the transform reads the forward twiddles (w and Shoup w') once.
        const double stages_per_fwd = double(stages) / double(rows);
        const hentt::TwiddleTable &table = eng.table();
        const double twiddle_read = double(table.forward_table_bytes());
        const double bytes =
            stages_per_fwd * 2.0 * double(row_bytes) + twiddle_read;
        layers["ntt.bytes_per_fwd"] = bytes;
        layers["ntt.gbps"] = bytes / (fwd_us * 1e3);
        // Cross-checks: the counter must agree with the fused radix-4
        // walk's ceil(log2 N / 2) dispatches, and the table with 2N words.
        const double log_n = std::log2(double(n));
        layers["ntt.model_stages_expected"] = std::ceil(log_n / 2.0);
        layers["ntt.model_stages_counted"] = stages_per_fwd;
        layers["ntt.model_twiddle_bytes_expected"] = 2.0 * double(row_bytes);
        layers["ntt.model_twiddle_bytes_table"] = twiddle_read;

        // Resident twiddle footprint per prime: split forward + inverse
        // tables with their Shoup companions, plus the fused stage
        // copies (2 words per pair entry, 4 per quad entry).
        double words = 4.0 * double(n);
        for (const auto *stages_list :
             {&table.fused_forward_stages(), &table.fused_inverse_stages()}) {
            for (const auto &st : *stages_list) {
                words += 6.0 * double(st.blocks);
            }
        }
        layers["ntt.twiddle_kib_per_prime"] = words * 8.0 / 1024.0;
    }

    // An empty ParallelFor at nproc: the pool's dispatch cost.
    {
        std::vector<double> us;
        for (int r = 0; r < 2000; ++r) {
            const std::int64_t t0 = NowNs();
            hentt::ParallelFor(nproc, std::size_t{1} << 30, [](std::size_t) {});
            us.push_back(MsSince(t0) * 1e3);
        }
        layers["pool.dispatch_us"] = Median(us);
    }

    // What one served request costs the daemon to compute: each program
    // of the served mix alone through the graph, mix-weighted.
    {
        double weighted = 0, total = 0;
        for (unsigned k = 0; k < 3; ++k) {
            if (mix[k] == 0) {
                continue;
            }
            const Circuit one = ServeCircuit(scheme, rk, static_cast<Prog>(k));
            GraphOnce(scheme, rk, one, {ap[0]}, {bp[0]});
            std::vector<double> ms;
            for (int r = 0; r < reps; ++r) {
                ms.push_back(GraphOnce(scheme, rk, one, {ap[0]}, {bp[0]}));
            }
            weighted += mix[k] * Median(ms);
            total += mix[k];
        }
        layers["served.compute_ms"] = weighted / total;
    }

    // Wire codec at this shape, for the mix's heaviest program: the
    // client encodes the request, the daemon decodes it, encodes the
    // reply, and the client decodes that.
    {
        Prog prog = Prog::kAdd;
        for (unsigned k = 0; k < 3; ++k) {
            if (mix[k] > 0) {
                prog = static_cast<Prog>(k);
            }
        }
        Ciphertext reply_ct;
        {
            HeOpGraph g(scheme, &rk);
            reply_ct = ServeCircuit(scheme, rk, prog)
                           .build(g, g.Input(a[0]), g.Input(b[0]))
                           .get();
        }
        serve::WireProgram wp;
        wp.ops = ProgOps(prog);
        wp.outputs = ProgOutputs(prog);
        std::vector<std::uint8_t> req_bytes, reply_bytes;
        serve::WireProgram decoded;
        const double req_enc = MedianMs(reps, [&] {
            Span s("wire.encode", 0);
            wp.inputs = {serve::ToWire(a[0]), serve::ToWire(b[0])};
            req_bytes = serve::EncodeProgram(wp);
        });
        const double req_dec = MedianMs(reps, [&] {
            Span s("wire.decode", 0);
            decoded = Unwrap(serve::DecodeProgram(req_bytes), "DecodeProgram");
            for (const serve::WireCiphertext &w : decoded.inputs) {
                Unwrap(serve::CiphertextFromWire(ctx, w), "CiphertextFromWire");
            }
        });
        const double reply_enc = MedianMs(reps, [&] {
            Span s("wire.encode", 0);
            reply_bytes =
                serve::EncodeCiphertextList({serve::ToWire(reply_ct)});
        });
        const double reply_dec = MedianMs(reps, [&] {
            Span s("wire.decode", 0);
            auto r = Unwrap(serve::DecodeCiphertextList(reply_bytes),
                            "DecodeCiphertextList");
            Unwrap(serve::CiphertextFromWire(ctx, r.front()),
                   "CiphertextFromWire");
        });
        layers["wire.encode_ms"] = req_enc + reply_enc;
        layers["wire.decode_ms"] = req_dec + reply_dec;
        layers["wire.reply_codec_ms"] = reply_enc + reply_dec;
        // Frame header: u32 length, u8 version, u8 type.
        layers["wire.req_bytes"] = double(req_bytes.size() + 6);
        layers["wire.reply_bytes"] = double(reply_bytes.size() + 6);
    }
}

// ---------------------------------------------------------------------
// Served workloads.
// ---------------------------------------------------------------------

ServeShape
ServeSmall()
{
    ServeShape s;
    s.params.degree = 64;
    s.params.prime_count = 2;
    s.params.prime_bits = 50;
    s.params.plain_modulus = 257;
    s.conns = std::min<std::size_t>(4, Nproc());
    s.pool = 16;
    s.ladder = {400, 2000, 4000, 6000, 8000, 11000, 16000};
    s.weight[0] = 1;  // Add
    s.weight[1] = 1;  // Mul→ModSwitch
    s.weight[2] = 0;
    return s;
}

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string daemon;
    std::string socket;
    std::string out;
};

void
CoalescerDelta(const serve::WireStats &s0, const serve::WireStats &s1,
               std::map<std::string, double> &layers)
{
    const double done = double(s1.requests_completed - s0.requests_completed);
    const double batches = double(s1.batches_executed - s0.batches_executed);
    layers["coalescer.batch_mean"] = batches > 0 ? done / batches : 0;
    layers["coalescer.max_batch"] = double(s1.max_batch_observed);
    layers["coalescer.coalesced_ratio"] =
        done > 0 ? double(s1.coalesced_requests - s0.coalesced_requests) / done
                 : 0;
}

/** Served workload; see README.md for what each phase measures. */
void
RunServe(const Options &opt, const ServeShape &shape, JsonObject &out)
{
    const std::size_t nproc = Nproc();
    hentt::SetGlobalThreadCount(nproc);
    // Untraced: at least 5 set-ups and 1 s of them (a cheap set-up is
    // mostly process spawn and connect, so it needs more samples).
    std::vector<double> setup_s;
    double setup_total = 0;
    ServeSetup s;
    SpanRecorder::Get().Enable(opt.trace);
    while (setup_s.empty() ||
           (!opt.trace && setup_s.size() < 25 &&
            (setup_s.size() < 5 || setup_total < 1.0))) {
        if (!setup_s.empty()) {
            TearDownServe(s);
        }
        s = SetUpServe(shape, opt.daemon, opt.socket, opt.seed);
        setup_s.push_back(s.setup_s);
        setup_total += s.setup_s;
    }
    SpanRecorder::Get().Enable(false);
    out.Add("setup_s", setup_s);
    MakePools(s, shape, opt.seed);
    // The load process's own decrypt checks stay on one lane each.
    hentt::SetGlobalThreadCount(1);

    Xoshiro256 rng(opt.seed);
    const double low = shape.ladder.front();
    // Warm-up, discarded: a busier rate first, so the daemon's arenas
    // have seen larger batches, then the lowest rate.
    const double busier =
        shape.ladder[std::min<std::size_t>(1, shape.ladder.size() - 1)];
    RunStep(s, shape, busier, 1.0, rng, false, 0);
    RunStep(s, shape, low, 2.0, rng, false, 0);

    std::map<std::string, double> layers;
    std::vector<std::string> steps;
    if (!opt.trace) {
        const double low_s =
            std::max(opt.seconds * kLowRateShare, kLowRateRequests / low);
        const double one_thread_s = opt.seconds * kOneThreadShare;
        const double rung_s =
            std::max(1.0, opt.seconds - low_s - one_thread_s) /
            double(std::max<std::size_t>(1, shape.ladder.size() - 1));
        for (std::size_t i = 0; i < shape.ladder.size(); ++i) {
            const double secs = i == 0 ? low_s : rung_s;
            auto reqs = RunStep(s, shape, shape.ladder[i], secs, rng, false, 0);
            steps.push_back(StepJson(shape.ladder[i], secs, shape.conns, reqs));
            if (i == 0) {
                // Peak of a daemon serving its workload, before the
                // overloaded rates pile up requests in flight.
                out.Add("peak_rss_mib", PeakRssMib(s.daemon->pid()));
            }
        }

        // Single-thread baseline: a daemon with one pool lane, offered
        // half the lowest rate so it is not overloaded.
        TearDownServe(s);
        hentt::SetGlobalThreadCount(nproc);
        s = SetUpServe(shape, opt.daemon, opt.socket, opt.seed, true);
        MakePools(s, shape, opt.seed);
        hentt::SetGlobalThreadCount(1);
        RunStep(s, shape, low / 2, 0.3, rng, false, 0);  // warm-up
        auto reqs = RunStep(s, shape, low / 2, one_thread_s, rng, false, 0);
        out.Raw("step_1t",
                StepJson(low / 2, one_thread_s, shape.conns, reqs));
    } else {
        // Same lowest rate twice: untraced, then traced (the difference
        // is the tracing overhead); Stats() deltas over the traced one.
        const double secs = opt.seconds * 0.5;
        auto plain = RunStep(s, shape, low, secs, rng, false, 0);
        serve::WireStats s0 =
            Unwrap(s.sessions[0].client->Stats(), "Stats");
        auto traced = RunStep(s, shape, low, secs, rng, true, 1);
        serve::WireStats s1 =
            Unwrap(s.sessions[0].client->Stats(), "Stats");
        CoalescerDelta(s0, s1, layers);
        steps.push_back(StepJson(low, secs, shape.conns, plain));
        steps.push_back(StepJson(low, secs, shape.conns, traced));
        layers["setup.engine_state_ms"] = s.engine_state_ms;
        layers["setup.relin_keygen_ms"] = s.relin_keygen_ms;
        layers["setup.load_keys_ms"] = s.load_keys_ms;
    }
    out.Raw("steps", JsonArray(steps));
    const bool keyed = shape.weight[2] > 0;
    if (opt.trace) {
        SpanRecorder::Get().Enable(true);
        Session &ses = s.sessions[0];
        const Prog prog =
            keyed ? Prog::kMulRelinModSwitch : Prog::kMulModSwitch;
        ProbeLayers(*ses.scheme, *ses.sk, ses.rk,
                    ServeCircuit(*ses.scheme, ses.rk, prog),
                    kServeProbeBatch, shape.weight, opt.seed, layers);
        SpanRecorder::Get().Enable(false);
    }
    TearDownServe(s);
    JsonObject lj;
    for (const auto &[k, v] : layers) {
        lj.Add(k, v);
    }
    out.Raw("layers", lj.str());
}

// ---------------------------------------------------------------------
// The large-parameter tower.
// ---------------------------------------------------------------------

constexpr std::size_t kTowerDepth = 7;
constexpr std::size_t kTowerBatch = 1;
/** Towers at nproc lanes per tower at 1 lane. The two alternate over
 *  the whole run: on a shared machine speed drifts over seconds, and
 *  back-to-back phases would each see a different machine. */
constexpr std::size_t kTowerAllLanesPerOne = 8;
/** Towers at nproc lanes at least: p90 needs 100 for 10 beyond it. */
constexpr std::size_t kTowerMinSamples = 100;
/** The program the tower's traced run serves to measure the serve
 *  layers at its shape: Mul→ModSwitch only (indexed by Prog). */
constexpr unsigned kTowerServedMix[3] = {0, 1, 0};

struct TowerState {
    std::shared_ptr<HeContext> ctx;
    std::unique_ptr<BgvScheme> scheme;
    std::optional<SecretKey> sk;  ///< set by KeyGen
    RelinKey rk;
    double setup_s = 0;
    double engine_state_ms = 0;
    double relin_keygen_ms = 0;
};

HeParams
TowerParams()
{
    HeParams p;
    p.degree = 16384;
    p.prime_count = 16;
    p.prime_bits = 50;
    p.plain_modulus = 65537;
    return p;
}

std::unique_ptr<TowerState>
SetUpTower(u64 seed)
{
    auto s = std::make_unique<TowerState>();
    Span span("setup", 0);
    const std::int64_t t0 = NowNs();
    {
        Span sp("setup.engine_state", 0);
        s->ctx = std::make_shared<HeContext>(TowerParams());
        s->engine_state_ms = MsSince(t0);
    }
    s->scheme = std::make_unique<BgvScheme>(s->ctx, seed * 31 + 1);
    s->sk = s->scheme->KeyGen();
    {
        Span sp("setup.relin_keygen", 0);
        const std::int64_t k0 = NowNs();
        s->rk = s->scheme->MakeRelinKey(*s->sk);
        s->relin_keygen_ms = MsSince(k0);
    }
    s->setup_s = MsSince(t0) * 1e-3;
    return s;
}

/** a * b^depth mod t, the tower's expected decryption. */
Poly
TowerExpected(const Poly &a, const Poly &b, u64 t)
{
    Poly acc = a;
    for (std::size_t d = 0; d < kTowerDepth; ++d) {
        acc = NegacyclicMul(acc, b, t);
    }
    return acc;
}

void
RunTower(const Options &opt, JsonObject &out)
{
    const std::size_t nproc = Nproc();
    hentt::SetGlobalThreadCount(nproc);
    const int setups = opt.trace ? 1 : 3;
    std::vector<double> setup_s;
    std::unique_ptr<TowerState> st;
    SpanRecorder::Get().Enable(opt.trace);
    for (int k = 0; k < setups; ++k) {
        st.reset();  // release the previous key and tables first
        st = SetUpTower(opt.seed);
        setup_s.push_back(st->setup_s);
    }
    SpanRecorder::Get().Enable(false);
    out.Add("setup_s", setup_s);

    // Seeded inputs and expected outputs, outside every timer.
    const HeParams params = TowerParams();
    const u64 t = params.plain_modulus;
    Xoshiro256 rng(opt.seed);
    std::vector<Poly> pa, pb;
    for (std::size_t i = 0; i < kTowerBatch; ++i) {
        pa.push_back(RandomPlain(params.degree, t, rng));
        pb.push_back(RandomPlain(params.degree, t, rng));
    }
    std::vector<Poly> want;
    std::vector<Ciphertext> ca, cb;
    for (std::size_t i = 0; i < kTowerBatch; ++i) {
        want.push_back(TowerExpected(pa[i], pb[i], t));
        ca.push_back(st->scheme->Encrypt(*st->sk, pa[i]));
        cb.push_back(st->scheme->Encrypt(*st->sk, pb[i]));
    }
    const Circuit circuit = TowerCircuit(*st->scheme, st->rk, kTowerDepth);

    u64 attempted = 0, failed = 0, wrong = 0, sample_id = 0;
    std::map<u64, Ciphertext> verified;
    // The caller's own time between one tower's end and the next one's
    // start (output check and input copy): the closed loop's lateness.
    std::vector<double> gaps;
    std::int64_t last_end = -1;
    // One closed-loop caller: build the graph, execute, read the outputs.
    const auto sample = [&](bool traced) {
        std::vector<Ciphertext> xa = ca, xb = cb;  // inputs move into the graph
        SpanRecorder::Get().Enable(traced);
        const u64 req = ++sample_id;
        const std::int64_t t0 = NowNs();
        if (last_end >= 0) {
            gaps.push_back(Ms(t0 - last_end));
        }
        std::vector<Ciphertext> results;
        {
            Span root("tower", req);
            HeOpGraph g(*st->scheme, &st->rk);
            std::vector<CtFuture> outs;
            {
                Span s("graph.build", req);
                for (std::size_t i = 0; i < kTowerBatch; ++i) {
                    outs.push_back(circuit.build(g, g.Input(std::move(xa[i])),
                                                 g.Input(std::move(xb[i]))));
                }
            }
            Span s("graph.execute", req);
            const hentt::Status status = g.ExecuteStatus();
            s.End();
            if (status.ok()) {
                for (const CtFuture &f : outs) {
                    results.push_back(f.get());
                }
            }
        }
        last_end = NowNs();
        const double ms = Ms(last_end - t0);
        SpanRecorder::Get().Enable(false);
        ++attempted;
        if (results.size() != kTowerBatch) {
            ++failed;
            std::fprintf(stderr, "tower failed\n");
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!Matches(*st->scheme, *st->sk, results[i], want[i],
                         verified, i)) {
                ++failed;
                ++wrong;
                std::fprintf(stderr, "tower output mismatch\n");
                break;
            }
        }
        return ms;
    };
    const auto loop = [&](double seconds, std::size_t min_samples,
                          bool traced) {
        std::vector<double> ms;
        const std::int64_t end =
            NowNs() + static_cast<std::int64_t>(seconds * 1e9);
        last_end = -1;
        while (NowNs() < end || ms.size() < min_samples) {
            ms.push_back(sample(traced));
        }
        return ms;
    };

    std::map<std::string, double> layers;
    sample(false);  // warm-up: arena, page faults
    if (!opt.trace) {
        // Switching lanes rebuilds the pool; an empty dispatch brings its
        // threads up before the next timed tower.
        const auto set_lanes = [](std::size_t lanes) {
            hentt::SetGlobalThreadCount(lanes);
            hentt::ParallelFor(lanes, std::size_t{1} << 30, [](std::size_t) {});
        };
        set_lanes(1);
        sample(false);
        std::vector<double> all, one;
        const std::int64_t end =
            NowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
        while (NowNs() < end || all.size() < kTowerMinSamples) {
            set_lanes(1);
            one.push_back(sample(false));
            set_lanes(nproc);
            for (std::size_t k = 0; k < kTowerAllLanesPerOne; ++k) {
                all.push_back(sample(false));
            }
        }
        out.Add("lat_ms", all);
        out.Add("lat_ms_1t", one);
        out.Add("peak_rss_mib", PeakRssMib(::getpid()));
    } else {
        out.Add("lat_ms", loop(opt.seconds / 3, 5, false));
        out.Add("lat_ms_traced", loop(opt.seconds / 3, 5, true));
        hentt::SetGlobalThreadCount(1);
        out.Add("lat_ms_1t", loop(opt.seconds / 3, 3, false));
        hentt::SetGlobalThreadCount(nproc);
        layers["setup.engine_state_ms"] = st->engine_state_ms;
        layers["setup.relin_keygen_ms"] = st->relin_keygen_ms;
        SpanRecorder::Get().Enable(true);
        ProbeLayers(*st->scheme, *st->sk, st->rk, circuit, kTowerBatch,
                    kTowerServedMix, opt.seed, layers);
        // No key upload in-process; the serde round trip of the key is
        // what loading it into a session would cost before the socket.
        {
            Span sp("setup.load_keys", 0);
            const std::int64_t l0 = NowNs();
            const RelinKey back = Unwrap(
                serve::RelinKeyFromWire(*st->ctx, serve::ToWire(st->rk)),
                "RelinKeyFromWire");
            layers["setup.load_keys_ms"] = MsSince(l0);
        }
        SpanRecorder::Get().Enable(false);
    }
    out.Add("gap_ms", gaps);
    out.Add("towers_per_sample", double(kTowerBatch));
    out.Add("attempted", double(attempted));
    out.Add("failed", double(failed));
    out.Add("wrong", double(wrong));

    if (opt.trace) {
        // The tower has no serve layer of its own. The serve layers are
        // measured at its shape on the keyless first level (Mul →
        // ModSwitch at N=16384 x 16) served by the daemon; the full
        // relinearization key exceeds the protocol's frame limit.
        st.reset();
        ServeShape shape;
        shape.params = params;
        shape.conns = 1;
        shape.pool = 1;
        std::copy(std::begin(kTowerServedMix), std::end(kTowerServedMix),
                  std::begin(shape.weight));
        shape.load_keys = false;
        ServeSetup s = SetUpServe(shape, opt.daemon, opt.socket, opt.seed);
        MakePools(s, shape, opt.seed);
        const serve::WireStats s0 =
            Unwrap(s.sessions[0].client->Stats(), "Stats");
        Xoshiro256 prng(opt.seed + 1);
        auto reqs = RunStep(s, shape, 4.0, 2.5, prng, true, 1);
        const serve::WireStats s1 =
            Unwrap(s.sessions[0].client->Stats(), "Stats");
        CoalescerDelta(s0, s1, layers);
        out.Raw("steps", JsonArray({StepJson(4.0, 2.5, shape.conns, reqs)}));
        TearDownServe(s);
    }
    JsonObject lj;
    for (const auto &[k, v] : layers) {
        lj.Add(k, v);
    }
    out.Raw("layers", lj.str());
}

std::string
SpansJson(const std::vector<SpanRecord> &spans)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? "," : "") << "[\"" << s.name << "\"," << s.start_ns << ","
           << s.end_ns << "," << s.id << "," << s.parent << "," << s.request
           << "," << s.thread << "]";
    }
    os << "]";
    return os.str();
}

int
Main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            opt.workload = v;
        } else if (k == "--seed") {
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            opt.trace = v == "1";
        } else if (k == "--daemon") {
            opt.daemon = v;
        } else if (k == "--socket") {
            opt.socket = v;
        } else if (k == "--out") {
            opt.out = v;
        } else {
            std::fprintf(stderr, "unknown option %s\n", k.c_str());
            return 2;
        }
    }
    if (opt.out.empty() || opt.daemon.empty() || opt.socket.empty() ||
        opt.seconds <= 0) {
        std::fprintf(stderr, "usage: see the file comment of load.cpp\n");
        return 2;
    }
    // Closed client sockets must not kill the load generator.
    ::signal(SIGPIPE, SIG_IGN);

    JsonObject out;
    out.Raw("workload", "\"" + opt.workload + "\"");
    out.Add("seed", double(opt.seed));
    out.Add("nproc", double(Nproc()));
    if (opt.workload == "serve_small") {
        RunServe(opt, ServeSmall(), out);
    } else if (opt.workload == "tower_n16k") {
        RunTower(opt, out);
    } else {
        std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
        return 2;
    }
    out.Raw("spans", SpansJson(SpanRecorder::Get().Drain()));
    std::ofstream f(opt.out);
    f << out.str() << "\n";
    return f.good() ? 0 : 1;
}

}  // namespace
}  // namespace hebench

int
main(int argc, char **argv)
{
    try {
        return hebench::Main(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hebench_load: %s\n", e.what());
        return 1;
    }
}
