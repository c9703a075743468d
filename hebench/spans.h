/**
 * @file
 * The benchmark's span recorder. Spans wrap the benchmark's own calls
 * into each hentt layer; nothing inside the library is instrumented.
 *
 * Each span carries a name, start and end on the steady clock, the id
 * of the span open on the same thread when it began (its parent, 0 at
 * the root) and a request id shared by every span of one request.
 * Spans are buffered per thread in memory and only handed out by
 * Drain() once the run has ended. A disabled recorder costs one
 * branch per span and records nothing.
 */

#ifndef HEBENCH_SPANS_H
#define HEBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct SpanRecord {
    const char *name = "";  ///< string literal, lives forever
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
};

class SpanRecorder
{
  public:
    static SpanRecorder &Get()
    {
        static SpanRecorder recorder;
        return recorder;
    }

    void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Every span recorded so far, all threads; call after the
     *  recording threads have been joined. */
    std::vector<SpanRecord> Drain()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<SpanRecord> all;
        for (const auto &buffer : buffers_) {
            all.insert(all.end(), buffer->spans.begin(),
                       buffer->spans.end());
            buffer->spans.clear();
        }
        return all;
    }

    struct ThreadBuffer {
        std::uint32_t thread = 0;
        std::vector<SpanRecord> spans;
        std::vector<std::uint64_t> open;  ///< ids of the open spans
    };

    ThreadBuffer &Local()
    {
        thread_local ThreadBuffer *local = nullptr;
        if (local == nullptr) {
            auto buffer = std::make_unique<ThreadBuffer>();
            buffer->spans.reserve(1 << 14);
            std::lock_guard<std::mutex> lock(mutex_);
            buffer->thread = static_cast<std::uint32_t>(buffers_.size());
            local = buffer.get();
            buffers_.push_back(std::move(buffer));
        }
        return *local;
    }

    std::uint64_t NextId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    SpanRecorder() = default;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_id_{1};
    std::mutex mutex_;
    // Buffers outlive their threads so Drain() can read them at the end.
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/** RAII span: opens at construction, closes at destruction (or End()). */
class Span
{
  public:
    Span(const char *name, std::uint64_t request)
    {
        SpanRecorder &rec = SpanRecorder::Get();
        if (!rec.enabled()) {
            return;
        }
        buffer_ = &rec.Local();
        record_.name = name;
        record_.request = request;
        record_.id = rec.NextId();
        record_.parent = buffer_->open.empty() ? 0 : buffer_->open.back();
        record_.thread = buffer_->thread;
        buffer_->open.push_back(record_.id);
        record_.start_ns = NowNs();
    }

    static constexpr std::uint64_t kOpenParent = ~0ull;

    /**
     * A span whose interval was measured elsewhere (a request's due
     * time, a poll inside a loop). @p parent defaults to the span open
     * on this thread. Returns the new span's id (0 when disabled).
     */
    static std::uint64_t Record(const char *name, std::uint64_t request,
                                std::int64_t start_ns, std::int64_t end_ns,
                                std::uint64_t parent = kOpenParent)
    {
        SpanRecorder &rec = SpanRecorder::Get();
        if (!rec.enabled()) {
            return 0;
        }
        SpanRecorder::ThreadBuffer &buffer = rec.Local();
        SpanRecord r;
        r.name = name;
        r.request = request;
        r.id = rec.NextId();
        if (parent == kOpenParent) {
            parent = buffer.open.empty() ? 0 : buffer.open.back();
        }
        r.parent = parent;
        r.thread = buffer.thread;
        r.start_ns = start_ns;
        r.end_ns = end_ns;
        buffer.spans.push_back(r);
        return r.id;
    }

    /** This span's id (0 when the recorder is disabled). */
    std::uint64_t id() const { return record_.id; }

    void End()
    {
        if (buffer_ == nullptr) {
            return;
        }
        record_.end_ns = NowNs();
        buffer_->open.pop_back();
        buffer_->spans.push_back(record_);
        buffer_ = nullptr;
    }

    ~Span() { End(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder::ThreadBuffer *buffer_ = nullptr;
    SpanRecord record_;
};

}  // namespace hebench

#endif  // HEBENCH_SPANS_H
