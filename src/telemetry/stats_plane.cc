#include "telemetry/stats_plane.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/process.h"
#include "telemetry/run_record.h"

namespace relaxfault {

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** EWMA weight of each new rate observation. */
constexpr double kRateAlpha = 0.3;

/** Minimum spacing between rate publishes (keeps /proc reads rare). */
constexpr uint64_t kRatePublishNs = 250'000'000;  // 250 ms.

/** Seqlock read attempts that pause-spin before the reader yields. */
constexpr unsigned kReadSpins = 64;

/** How long a reader waits out an odd (write-locked) slot. */
constexpr uint64_t kReadBudgetNs = 250'000'000;  // 250 ms.

/** Spin-wait hint: lets a sibling hyperthread (the writer) progress. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

const char *
statsPhaseName(StatsPhase phase)
{
    switch (phase) {
      case StatsPhase::Idle:       return "idle";
      case StatsPhase::Running:    return "running";
      case StatsPhase::Committing: return "committing";
      case StatsPhase::Merging:    return "merging";
      case StatsPhase::Done:       return "done";
      case StatsPhase::Stalled:    return "stalled";
      case StatsPhase::Crashed:    return "crashed";
    }
    return "unknown";
}

StatsPlane::StatsPlane(void *map, size_t bytes, bool writable)
    : map_(map), bytes_(bytes), writable_(writable)
{
}

StatsPlane::~StatsPlane()
{
    if (map_ != nullptr)
        munmap(map_, bytes_);
}

StatsPlane::StatsPlane(StatsPlane &&other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      writable_(other.writable_)
{
}

StatsPlane &
StatsPlane::operator=(StatsPlane &&other) noexcept
{
    if (this != &other) {
        if (map_ != nullptr)
            munmap(map_, bytes_);
        map_ = std::exchange(other.map_, nullptr);
        bytes_ = std::exchange(other.bytes_, 0);
        writable_ = other.writable_;
    }
    return *this;
}

StatsPlane::Header *
StatsPlane::header() const
{
    return static_cast<Header *>(map_);
}

StatsPlane::Slot *
StatsPlane::slot(size_t index) const
{
    auto *base = static_cast<unsigned char *>(map_) + sizeof(Header);
    return reinterpret_cast<Slot *>(base + index * sizeof(Slot));
}

StatsPlane
StatsPlane::create(const std::string &path, size_t slots,
                   const std::string &campaign)
{
    if (slots == 0)
        slots = 1;
    if (slots > kMaxSlots)
        fatal("stats plane: " + std::to_string(slots) +
              " slots exceeds the cap of " + std::to_string(kMaxSlots));
    const size_t bytes = sizeof(Header) + slots * sizeof(Slot);

    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("stats plane: cannot create " + path + ": " +
              std::strerror(errno));
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("stats plane: cannot size " + path + ": " +
              std::strerror(err));
    }
    void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        fatal("stats plane: mmap of " + path + " failed: " +
              std::strerror(errno));

    StatsPlane plane(map, bytes, /*writable=*/true);
    Header *header = new (plane.header()) Header;
    for (size_t i = 0; i < slots; ++i)
        new (plane.slot(i)) Slot;

    // Publish the header LAST: an observer that raced the create sees a
    // zero magic and reports "not a stats plane", never garbage slots.
    std::memset(header->campaign, 0, kCampaignBytes);
    std::strncpy(header->campaign, campaign.c_str(), kCampaignBytes - 1);
    header->version.store(kVersion, std::memory_order_relaxed);
    header->slotCount.store(static_cast<uint32_t>(slots),
                            std::memory_order_relaxed);
    header->slotStride.store(sizeof(Slot), std::memory_order_relaxed);
    header->ownerPid.store(static_cast<uint64_t>(::getpid()),
                           std::memory_order_relaxed);
    header->startEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
    header->quarantinedShards.store(0, std::memory_order_relaxed);
    header->magic.store(kMagic, std::memory_order_release);
    return plane;
}

std::unique_ptr<StatsPlane>
StatsPlane::attach(const std::string &path, std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return nullptr;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open " + path + ": " + std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return fail("cannot stat " + path + ": " + std::strerror(err));
    }
    const size_t bytes = static_cast<size_t>(st.st_size);
    if (bytes < sizeof(Header)) {
        ::close(fd);
        return fail(path + " is too small to be a stats plane");
    }
    void *map = mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return fail("mmap of " + path + " failed: " +
                    std::strerror(errno));

    auto plane = std::unique_ptr<StatsPlane>(
        new StatsPlane(map, bytes, /*writable=*/false));
    const Header *header = plane->header();
    if (header->magic.load(std::memory_order_acquire) != kMagic)
        return fail(path + " is not a relaxfault stats plane "
                           "(bad magic)");
    if (header->version.load(std::memory_order_relaxed) != kVersion)
        return fail(path + ": unsupported stats plane version " +
                    std::to_string(
                        header->version.load(std::memory_order_relaxed)));
    if (header->slotStride.load(std::memory_order_relaxed) !=
        sizeof(Slot))
        return fail(path + ": slot stride mismatch (layout drift)");
    const uint32_t slots =
        header->slotCount.load(std::memory_order_relaxed);
    if (slots == 0 || slots > kMaxSlots ||
        bytes < sizeof(Header) + slots * sizeof(Slot))
        return fail(path + ": slot count inconsistent with file size");
    return plane;
}

size_t
StatsPlane::slots() const
{
    return header()->slotCount.load(std::memory_order_relaxed);
}

std::string
StatsPlane::campaign() const
{
    const Header *h = header();
    return std::string(h->campaign,
                       strnlen(h->campaign, kCampaignBytes));
}

uint64_t
StatsPlane::ownerPid() const
{
    return header()->ownerPid.load(std::memory_order_relaxed);
}

uint64_t
StatsPlane::startEpochMs() const
{
    return header()->startEpochMs.load(std::memory_order_relaxed);
}

uint64_t
StatsPlane::quarantinedShards() const
{
    return header()->quarantinedShards.load(std::memory_order_relaxed);
}

void
StatsPlane::noteQuarantine()
{
    header()->quarantinedShards.fetch_add(1, std::memory_order_relaxed);
}

bool
StatsPlane::readSlot(size_t index, StatsSlotSample &out) const
{
    if (index >= slots())
        return false;
    const Slot *s = slot(index);
    // A writer descheduled mid-frame holds the sequence odd for a whole
    // time slice, so a bare spin count would report a live slot as torn
    // on a loaded host. Spin briefly with a pause, then yield until the
    // budget runs out; only a writer that died mid-frame exhausts it.
    const uint64_t deadline_ns = steadyNowNs() + kReadBudgetNs;
    for (unsigned attempt = 0;; ++attempt) {
        if (attempt >= kReadSpins) {
            if (steadyNowNs() > deadline_ns)
                return false;
            std::this_thread::yield();
        } else if (attempt > 0) {
            cpuRelax();
        }
        const uint64_t seq1 = s->seq.load(std::memory_order_acquire);
        if ((seq1 & 1) != 0)
            continue;
        out.pid = s->pid.load(std::memory_order_relaxed);
        out.phase = static_cast<StatsPhase>(
            s->phase.load(std::memory_order_relaxed));
        out.shard = s->shard.load(std::memory_order_relaxed);
        out.trialsPerSec =
            static_cast<double>(s->ewmaMilliTrialsPerSec.load(
                std::memory_order_relaxed)) *
            1e-3;
        out.rssBytes = s->rssBytes.load(std::memory_order_relaxed);
        out.armedFailpoints =
            s->armedFailpoints.load(std::memory_order_relaxed);
        out.updateEpochMs =
            s->updateEpochMs.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t seq2 = s->seq.load(std::memory_order_relaxed);
        if (seq1 != seq2)
            continue;
        // The monotone counters are single atomics read outside the
        // seqlock. Completed is read first, with acquire: it pairs with
        // the publisher's release increment, so every start it counts
        // is visible to the started read and completed <= started.
        out.trialsCompleted =
            s->trialsCompleted.load(std::memory_order_acquire);
        out.trialsStarted =
            s->trialsStarted.load(std::memory_order_relaxed);
        out.heartbeatTick =
            s->heartbeatTick.load(std::memory_order_relaxed);
        return true;
    }
}

StatsPublisher
StatsPlane::publisher(size_t index)
{
    if (!writable_)
        panic("stats plane: publisher() on a read-only attachment");
    if (index >= slots())
        panic("stats plane: publisher slot out of range");
    return StatsPublisher(slot(index));
}

namespace {

/**
 * Seqlock write frame: odd on entry, even (new value) on exit. Callers
 * read /proc before opening it, so the slot is write-locked only for a
 * few stores.
 */
class SeqWrite
{
  public:
    explicit SeqWrite(std::atomic<uint64_t> &seq) : seq_(seq)
    {
        seq_.fetch_add(1, std::memory_order_acq_rel);
    }

    ~SeqWrite() { seq_.fetch_add(1, std::memory_order_release); }

  private:
    std::atomic<uint64_t> &seq_;
};

} // namespace

void
StatsPlane::markPhase(size_t index, StatsPhase phase)
{
    if (!writable_ || index >= slots())
        return;
    Slot *s = slot(index);
    SeqWrite frame(s->seq);
    s->phase.store(static_cast<uint64_t>(phase),
                   std::memory_order_relaxed);
    s->updateEpochMs.store(runTimestampMs(), std::memory_order_relaxed);
}

void
StatsPublisher::announce(StatsPhase phase)
{
    if (slot_ == nullptr)
        return;
    const auto rss = static_cast<uint64_t>(peakRssBytes());
    SeqWrite frame(slot_->seq);
    slot_->pid.store(static_cast<uint64_t>(::getpid()),
                     std::memory_order_relaxed);
    slot_->phase.store(static_cast<uint64_t>(phase),
                       std::memory_order_relaxed);
    slot_->armedFailpoints.store(failpoint::armedCount(),
                                 std::memory_order_relaxed);
    slot_->rssBytes.store(rss, std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::beginShard(uint64_t shard)
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    SeqWrite frame(slot_->seq);
    slot_->shard.store(shard, std::memory_order_relaxed);
    slot_->phase.store(static_cast<uint64_t>(StatsPhase::Running),
                       std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::endShard()
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    const auto rss = static_cast<uint64_t>(peakRssBytes());
    SeqWrite frame(slot_->seq);
    slot_->phase.store(static_cast<uint64_t>(StatsPhase::Idle),
                       std::memory_order_relaxed);
    slot_->rssBytes.store(rss, std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::setPhase(StatsPhase phase)
{
    if (slot_ == nullptr)
        return;
    SeqWrite frame(slot_->seq);
    slot_->phase.store(static_cast<uint64_t>(phase),
                       std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::maybePublishRate()
{
    // Try-lock: concurrent trial threads never wait here — losers just
    // skip this publish; the counters already carry their increment.
    uint64_t expected = 0;
    if (!slot_->rateLock.compare_exchange_strong(
            expected, 1, std::memory_order_acquire,
            std::memory_order_relaxed))
        return;

    const uint64_t now_ns = steadyNowNs();
    const uint64_t last_ns =
        slot_->scratchLastNs.load(std::memory_order_relaxed);
    if (last_ns != 0 && now_ns - last_ns < kRatePublishNs) {
        slot_->rateLock.store(0, std::memory_order_release);
        return;
    }
    const uint64_t completed =
        slot_->trialsCompleted.load(std::memory_order_relaxed);
    const uint64_t last_completed =
        slot_->scratchLastCompleted.load(std::memory_order_relaxed);

    double ewma =
        std::bit_cast<double>(slot_->scratchEwmaBits.load(
            std::memory_order_relaxed));
    if (last_ns != 0 && now_ns > last_ns) {
        const double instant =
            static_cast<double>(completed - last_completed) /
            (static_cast<double>(now_ns - last_ns) * 1e-9);
        ewma = ewma == 0.0
            ? instant
            : kRateAlpha * instant + (1.0 - kRateAlpha) * ewma;
    }
    slot_->scratchLastNs.store(now_ns, std::memory_order_relaxed);
    slot_->scratchLastCompleted.store(completed,
                                      std::memory_order_relaxed);
    slot_->scratchEwmaBits.store(std::bit_cast<uint64_t>(ewma),
                                 std::memory_order_relaxed);

    const auto rss = static_cast<uint64_t>(peakRssBytes());
    {
        SeqWrite frame(slot_->seq);
        slot_->ewmaMilliTrialsPerSec.store(
            static_cast<uint64_t>(ewma * 1e3),
            std::memory_order_relaxed);
        slot_->rssBytes.store(rss, std::memory_order_relaxed);
        slot_->updateEpochMs.store(runTimestampMs(),
                                   std::memory_order_relaxed);
    }
    slot_->rateLock.store(0, std::memory_order_release);
}

} // namespace relaxfault
