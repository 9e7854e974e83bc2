#include "store/artifact_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "fault/fault.hh"
#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/wire.hh"

namespace darkside {

namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x44534131; // "DSA1"
/** Generous cap on the kind tag; anything longer is a corrupt frame. */
constexpr std::uint32_t kMaxKindLength = 64;

/** The store.* outcome counters, registered together on first use so
 *  a snapshot containing any of them contains all of them. */
struct StoreMetrics
{
    telemetry::Counter writes;
    telemetry::Counter writeFailures;
    telemetry::Counter verifiedReads;
    telemetry::Counter quarantined;
    telemetry::Counter resumedUnits;

    static const StoreMetrics &
    get()
    {
        static const StoreMetrics m = [] {
            auto &reg = telemetry::MetricRegistry::global();
            StoreMetrics sm;
            sm.writes = reg.counter(telemetry::metric("store.writes"));
            sm.writeFailures =
                reg.counter(telemetry::metric("store.write_failures"));
            sm.verifiedReads =
                reg.counter(telemetry::metric("store.verified_reads"));
            sm.quarantined =
                reg.counter(telemetry::metric("store.quarantined"));
            sm.resumedUnits =
                reg.counter(telemetry::metric("store.resumed_units"));
            return sm;
        }();
        return m;
    }
};

/** Write all of `buf` to `fd`, riding out short writes and EINTR. */
bool
writeAll(int fd, const char *buf, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** fsync a directory so a just-renamed entry survives power loss. */
void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return; // advisory: rename durability is best-effort here
    ::fsync(fd);
    ::close(fd);
}

std::string
errnoMessage()
{
    return std::strerror(errno);
}

} // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root))
{
    ds_assert(!root_.empty());
}

std::string
ArtifactStore::pathOf(const std::string &name) const
{
    return root_ + "/" + name;
}

bool
ArtifactStore::exists(const std::string &name) const
{
    std::error_code ec;
    return fs::exists(pathOf(name), ec);
}

Status
ArtifactStore::write(const std::string &name, const std::string &kind,
                     const std::string &payload) const
{
    ds_assert(!kind.empty() && kind.size() <= kMaxKindLength);
    const StoreMetrics &metrics = StoreMetrics::get();
    const std::uint64_t probe_key = faultKey(name);

    // Frame: magic, version, kind, payload length, payload CRC, payload.
    std::string frame;
    frame.reserve(payload.size() + kind.size() + 32);
    wire::Writer w(frame);
    w.pod(kMagic)
        .pod(kFormatVersion)
        .pod(static_cast<std::uint32_t>(kind.size()))
        .bytes(kind)
        .pod(static_cast<std::uint64_t>(payload.size()))
        .pod(crc32(payload));
    const std::size_t header_bytes = frame.size();
    w.bytes(payload);

    // A torn write models a crash (or lying disk) that left a
    // half-written payload *after* the commit protocol claimed
    // success: the truncated frame is committed normally and the
    // corruption is only caught by the next read's CRC check.
    std::size_t commit_bytes = frame.size();
    if (auto kind_injected = FaultInjector::global().trigger(
            "store.torn_write", probe_key)) {
        (void)kind_injected;
        commit_bytes = header_bytes + payload.size() / 2;
    }

    const std::string path = pathOf(name);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
        metrics.writeFailures.add(1);
        return Status::error("store: cannot create directories for '" +
                             path + "': " + ec.message());
    }

    // Unique temp name: concurrent writers of the same artifact must
    // not stomp each other's in-flight bytes.
    static std::atomic<std::uint64_t> temp_serial{0};
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(
                      temp_serial.fetch_add(1)));
    const std::string temp = path + suffix;

    const int fd = ::open(temp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        metrics.writeFailures.add(1);
        return Status::error("store: cannot open temp file '" + temp +
                             "': " + errnoMessage());
    }
    const auto abort_write = [&](const std::string &message) {
        ::close(fd);
        ::unlink(temp.c_str());
        metrics.writeFailures.add(1);
        return Status::error(message);
    };

    if (!writeAll(fd, frame.data(), commit_bytes)) {
        return abort_write("store: short write to '" + temp +
                           "': " + errnoMessage());
    }
    if (FaultInjector::global().trigger("store.fsync_fail", probe_key)) {
        return abort_write("store: '" + name +
                           "': injected io_error (fault "
                           "store.fsync_fail)");
    }
    if (::fsync(fd) != 0) {
        return abort_write("store: fsync of '" + temp +
                           "' failed: " + errnoMessage());
    }
    if (::close(fd) != 0) {
        ::unlink(temp.c_str());
        metrics.writeFailures.add(1);
        return Status::error("store: close of '" + temp +
                             "' failed: " + errnoMessage());
    }
    if (FaultInjector::global().trigger("store.rename_fail",
                                        probe_key)) {
        ::unlink(temp.c_str());
        metrics.writeFailures.add(1);
        return Status::error("store: '" + name +
                             "': injected io_error (fault "
                             "store.rename_fail)");
    }
    if (::rename(temp.c_str(), path.c_str()) != 0) {
        ::unlink(temp.c_str());
        metrics.writeFailures.add(1);
        return Status::error("store: rename '" + temp + "' -> '" +
                             path + "' failed: " + errnoMessage());
    }
    fsyncDir(fs::path(path).parent_path().string());
    metrics.writes.add(1);
    return Status::ok();
}

void
ArtifactStore::quarantine(const std::string &name,
                          const std::string &reason) const
{
    const std::string path = pathOf(name);
    std::string flat = name;
    for (char &c : flat) {
        if (c == '/')
            c = '_';
    }
    const std::string qdir = root_ + "/" + kQuarantineDir;
    std::error_code ec;
    fs::create_directories(qdir, ec);

    // Never overwrite earlier quarantined evidence: pick the first
    // free numbered slot.
    std::string target = qdir + "/" + flat;
    for (int i = 1; fs::exists(target, ec); ++i)
        target = qdir + "/" + flat + "." + std::to_string(i);

    fs::rename(path, target, ec);
    if (ec) {
        warn("store: failed to quarantine corrupt artifact '%s' (%s); "
             "leaving it in place",
             path.c_str(), ec.message().c_str());
        return;
    }
    StoreMetrics::get().quarantined.add(1);
    warn("store: quarantined corrupt artifact '%s' -> '%s' (%s)",
         path.c_str(), target.c_str(), reason.c_str());
}

Result<std::string>
ArtifactStore::read(const std::string &name,
                    const std::string &kind) const
{
    const std::string path = pathOf(name);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status::error("store: no artifact '" + path + "'");
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        return Status::error("store: cannot read '" + path + "'");

    // Every frame check that fails from here on means the committed
    // bytes cannot be trusted: quarantine the file (it is never
    // deleted, and with the original path gone it is never re-read).
    const auto corrupt = [&](const std::string &reason) -> Status {
        quarantine(name, reason);
        return Status::error("store: artifact '" + path + "' " +
                             reason + "; quarantined");
    };

    wire::Reader r(bytes);
    std::uint32_t magic = 0, version = 0, kind_len = 0;
    if (!r.pod(magic) || magic != kMagic)
        return corrupt("has no DSA1 frame");
    if (!r.pod(version))
        return corrupt("has a truncated header");
    if (version > kFormatVersion) {
        // Intact data from the future: refuse without destroying it.
        return Status::error("store: artifact '" + path +
                             "' has format version " +
                             std::to_string(version) +
                             " > supported " +
                             std::to_string(kFormatVersion));
    }
    std::string actual_kind;
    if (!r.pod(kind_len) || kind_len > kMaxKindLength ||
        !r.bytes(actual_kind, kind_len)) {
        return corrupt("has a corrupt kind tag");
    }

    std::uint64_t payload_len = 0;
    std::uint32_t expected_crc = 0;
    if (!r.pod(payload_len) || !r.pod(expected_crc))
        return corrupt("has a truncated header");
    std::string payload;
    if (r.remaining() != payload_len ||
        !r.bytes(payload, r.remaining())) {
        return corrupt("is torn (payload length mismatch)");
    }
    if (crc32(payload) != expected_crc)
        return corrupt("fails CRC-32 verification");

    if (actual_kind != kind) {
        // The frame verified; the caller asked for the wrong kind.
        return Status::error("store: artifact '" + path +
                             "' holds kind '" + actual_kind +
                             "', expected '" + kind + "'");
    }
    StoreMetrics::get().verifiedReads.add(1);
    return payload;
}

} // namespace darkside
