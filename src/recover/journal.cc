#include "recover/journal.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>

#include "net/wire.h"

namespace mqpi::recover {

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

Status Errno(const char* what, const std::string& path) {
  return Status::Internal(std::string(what) + " failed for " + path + ": " +
                          std::strerror(errno));
}

}  // namespace

std::uint32_t Crc32(const char* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string EncodeRecord(RecordType type, std::string_view payload) {
  // CRC covers the type word + payload, so a record whose type byte
  // flips is rejected the same as one whose body did.
  net::WireWriter typed;
  typed.U32(static_cast<std::uint32_t>(type));
  std::uint32_t crc = Crc32(typed.bytes().data(), typed.bytes().size());
  crc = Crc32(payload.data(), payload.size(), crc);

  net::WireWriter out;
  out.U32(static_cast<std::uint32_t>(payload.size()));
  out.U32(crc);
  out.U32(static_cast<std::uint32_t>(type));
  std::string bytes = out.Take();
  bytes.append(payload.data(), payload.size());
  return bytes;
}

// ---- event payloads ---------------------------------------------------------

namespace {

void EncodeSpec(net::WireWriter* w, const engine::QuerySpec& spec) {
  w->U8(static_cast<std::uint8_t>(spec.kind));
  w->Str(spec.table);
  w->U8(static_cast<std::uint8_t>(spec.agg));
  w->Str(spec.agg_column);
  w->Str(spec.filter_column);
  w->F64(spec.filter_threshold);
  w->U8(spec.has_filter ? 1 : 0);
  w->Str(spec.group_column);
  w->Str(spec.order_column);
  w->U8(spec.descending ? 1 : 0);
  w->U64(static_cast<std::uint64_t>(spec.limit));
  w->F64(spec.synthetic_cost);
}

bool DecodeSpec(net::WireReader* r, engine::QuerySpec* spec) {
  std::uint8_t kind = 0, agg = 0, has_filter = 0, descending = 0;
  std::uint64_t limit = 0;
  if (!r->U8(&kind) || !r->Str(&spec->table) || !r->U8(&agg) ||
      !r->Str(&spec->agg_column) || !r->Str(&spec->filter_column) ||
      !r->F64(&spec->filter_threshold) || !r->U8(&has_filter) ||
      !r->Str(&spec->group_column) || !r->Str(&spec->order_column) ||
      !r->U8(&descending) || !r->U64(&limit) ||
      !r->F64(&spec->synthetic_cost)) {
    return false;
  }
  if (kind > static_cast<std::uint8_t>(engine::QuerySpec::Kind::kSynthetic) ||
      agg > static_cast<std::uint8_t>(engine::AggFunc::kMax)) {
    return false;
  }
  spec->kind = static_cast<engine::QuerySpec::Kind>(kind);
  spec->agg = static_cast<engine::AggFunc>(agg);
  spec->has_filter = has_filter != 0;
  spec->descending = descending != 0;
  spec->limit = static_cast<std::size_t>(limit);
  return true;
}

}  // namespace

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSessionOpen: return "SESSION_OPEN";
    case EventKind::kSessionClose: return "SESSION_CLOSE";
    case EventKind::kSubmit: return "SUBMIT";
    case EventKind::kSubmitAt: return "SUBMIT_AT";
    case EventKind::kControl: return "CONTROL";
    case EventKind::kAdmission: return "ADMISSION";
    case EventKind::kStep: return "STEP";
    case EventKind::kPublish: return "PUBLISH";
    case EventKind::kProbe: return "PROBE";
    case EventKind::kDrain: return "DRAIN";
  }
  return "UNKNOWN";
}

std::string EncodeEvent(const Event& event) {
  net::WireWriter w;
  w.U8(static_cast<std::uint8_t>(event.kind));
  w.U64(event.session_id);
  w.U64(event.query_id);
  w.F64(event.time);
  w.U8(static_cast<std::uint8_t>(event.priority));
  w.U8(static_cast<std::uint8_t>(event.op));
  w.U8(event.flag ? 1 : 0);
  EncodeSpec(&w, event.spec);
  w.Str(event.name);
  return w.Take();
}

Status DecodeEvent(std::string_view payload, Event* out) {
  net::WireReader r(payload.data(), payload.size());
  std::uint8_t kind = 0, priority = 0, op = 0, flag = 0;
  if (!r.U8(&kind) || !r.U64(&out->session_id) || !r.U64(&out->query_id) ||
      !r.F64(&out->time) || !r.U8(&priority) || !r.U8(&op) || !r.U8(&flag) ||
      !DecodeSpec(&r, &out->spec) || !r.Str(&out->name) || !r.Exhausted()) {
    return Status::InvalidArgument("event payload does not parse");
  }
  if (kind < static_cast<std::uint8_t>(EventKind::kSessionOpen) ||
      kind > static_cast<std::uint8_t>(EventKind::kDrain) ||
      priority > static_cast<std::uint8_t>(Priority::kCritical) ||
      op > static_cast<std::uint8_t>(
               sched::QueryEventKind::kPriorityChanged)) {
    return Status::InvalidArgument("event payload holds bad enum values");
  }
  out->kind = static_cast<EventKind>(kind);
  out->priority = static_cast<Priority>(priority);
  out->op = static_cast<sched::QueryEventKind>(op);
  out->flag = flag != 0;
  return Status::OK();
}

// ---- RecordWriter -----------------------------------------------------------

RecordWriter::~RecordWriter() { Close(); }

Status RecordWriter::Open(const std::string& path, std::int64_t truncate_to) {
  Close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", path);
  if (truncate_to >= 0) {
    // A segment this call just created is already empty: skip the
    // no-op truncate and its journaled inode update.
    struct stat st {};
    const bool sized = ::fstat(fd, &st) == 0 && st.st_size == truncate_to;
    if (!sized && ::ftruncate(fd, truncate_to) != 0) {
      const Status status = Errno("ftruncate", path);
      ::close(fd);
      return status;
    }
  }
  fd_ = fd;
  path_ = path;
  bytes_written_ = 0;
  return Status::OK();
}

void RecordWriter::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status RecordWriter::Append(RecordType type, std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("record log is not open");
  const std::string bytes = EncodeRecord(type, payload);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path_);
    }
    sent += static_cast<std::size_t>(n);
  }
  bytes_written_ += bytes.size();
  return Status::OK();
}

Status RecordWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("record log is not open");
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

// ---- ReadLog ----------------------------------------------------------------

Result<ReadLogResult> ReadLog(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no log at " + path);
    return Errno("open", path);
  }
  std::string data;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  ReadLogResult result;
  std::size_t pos = 0;
  while (data.size() - pos >= kRecordPrefixBytes) {
    net::WireReader prefix(data.data() + pos, kRecordPrefixBytes);
    std::uint32_t len = 0, crc = 0, type = 0;
    prefix.U32(&len);
    prefix.U32(&crc);
    prefix.U32(&type);
    if (len > kMaxRecordBytes ||
        data.size() - pos - kRecordPrefixBytes < len) {
      break;  // absurd length or torn tail
    }
    std::uint32_t actual =
        Crc32(data.data() + pos + 8, 4);  // the type word
    actual = Crc32(data.data() + pos + kRecordPrefixBytes, len, actual);
    if (actual != crc) break;  // corrupt record ends the valid prefix
    if (type < static_cast<std::uint32_t>(RecordType::kEvent) ||
        type > static_cast<std::uint32_t>(RecordType::kVerification)) {
      break;
    }
    Record record;
    record.type = static_cast<RecordType>(type);
    record.payload.assign(data.data() + pos + kRecordPrefixBytes, len);
    result.records.push_back(std::move(record));
    pos += kRecordPrefixBytes + len;
  }
  result.valid_bytes = pos;
  result.dropped_bytes = data.size() - pos;
  result.truncated_tail = result.dropped_bytes > 0;
  return result;
}

}  // namespace mqpi::recover
