#include "src/diskstore/disk_store.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/prof.h"

namespace past {

DiskStore::DiskStore(std::string dir, const DiskStoreOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      owned_metrics_(options.metrics == nullptr ? std::make_unique<MetricsRegistry>()
                                                : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics : owned_metrics_.get()),
      m_bytes_written_(metrics_->GetCounter("disk.bytes_written")),
      m_fsyncs_(metrics_->GetCounter("disk.fsyncs")),
      m_compactions_(metrics_->GetCounter("disk.compactions")),
      m_recovery_replayed_(metrics_->GetCounter("disk.recovery_replayed")),
      m_torn_tails_(metrics_->GetCounter("disk.torn_tails")),
      m_segments_(metrics_->GetGauge("disk.segments")) {
#if defined(PAST_PROF)
  m_append_us_ = metrics_->GetLogHistogram("disk.append_us");
  m_fsync_us_ = metrics_->GetLogHistogram("disk.fsync_us");
#endif
}

DiskStore::~DiskStore() {
  if (active_file_ != nullptr) {
    // Best-effort durability on clean shutdown; a failure here has no
    // caller to report to, and replay handles whatever did not land.
    IgnoreStatus(active_file_->Sync());
    IgnoreStatus(active_file_->Close());
  }
  m_segments_->Sub(static_cast<double>(segment_seqs_.size()));
}

Result<std::unique_ptr<DiskStore>> DiskStore::Open(const std::string& dir,
                                                   const DiskStoreOptions& options) {
  std::unique_ptr<DiskStore> store(new DiskStore(dir, options));
  StatusCode status = store->Replay();
  if (status != StatusCode::kOk) {
    return status;
  }
  return store;
}

std::string DiskStore::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + SegmentFileName(seq);
}

// --- recovery ------------------------------------------------------------------

StatusCode DiskStore::Replay() {
  StatusCode status = env_->CreateDirs(dir_);
  if (status != StatusCode::kOk) {
    return status;
  }
  std::vector<std::string> names;
  status = env_->ListDir(dir_, &names);
  if (status != StatusCode::kOk) {
    return status;
  }
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());

  uint64_t replayed = 0;
  for (size_t i = 0; i < seqs.size(); ++i) {
    const bool is_last = i + 1 == seqs.size();
    status = ReplaySegment(seqs[i], is_last, &replayed);
    if (status == StatusCode::kNotFound) {
      // The newest segment held nothing recoverable (a crash before its
      // header landed) and was deleted.
      PAST_CHECK(is_last);
      seqs.pop_back();
      break;
    }
    if (status != StatusCode::kOk) {
      return status;
    }
    segment_seqs_.push_back(seqs[i]);
  }
  m_recovery_replayed_->Inc(replayed);
  m_segments_->Add(static_cast<double>(segment_seqs_.size()));

  next_seq_ = seqs.empty() ? 1 : seqs.back() + 1;
  if (!seqs.empty()) {
    uint64_t last_size = 0;
    status = env_->FileSize(SegmentPath(seqs.back()), &last_size);
    if (status != StatusCode::kOk) {
      return status;
    }
    if (last_size < options_.segment_target_bytes) {
      // Resume appending where the log left off.
      return OpenActiveSegment(seqs.back(), last_size);
    }
  }
  return OpenActiveSegment(next_seq_++, 0);
}

StatusCode DiskStore::ReplaySegment(uint64_t seq, bool is_last, uint64_t* replayed) {
  const std::string path = SegmentPath(seq);
  Bytes buf;
  StatusCode status = env_->ReadFile(path, &buf);
  if (status != StatusCode::kOk) {
    return StatusCode::kUnavailable;
  }
  if (buf.size() < kSegmentHeaderSize) {
    if (is_last) {
      // Crash before the segment header was fully written: the file cannot
      // contain any acknowledged record, so drop it (best effort: a
      // leftover headerless file is re-dropped on the next replay).
      IgnoreStatus(env_->RemoveFile(path));
      m_torn_tails_->Inc();
      return StatusCode::kNotFound;
    }
    return StatusCode::kCorruption;
  }
  uint64_t header_seq = 0;
  if (!DecodeSegmentHeader(ByteSpan(buf.data(), buf.size()), &header_seq) ||
      header_seq != seq) {
    return StatusCode::kCorruption;
  }

  size_t offset = kSegmentHeaderSize;
  ByteSpan span(buf.data(), buf.size());
  Record record;
  for (;;) {
    const size_t start = offset;
    ParseStatus parse = ParseRecord(span, &offset, &record);
    if (parse == ParseStatus::kAtEnd) {
      return StatusCode::kOk;
    }
    if (parse == ParseStatus::kOk) {
      IndexEntry entry;
      entry.seg = seq;
      entry.value_offset = start + kRecordPrefixSize + kRecordBodyMinSize;
      entry.value_len = static_cast<uint32_t>(record.value.size());
      entry.record_len = static_cast<uint32_t>(offset - start);
      ApplyRecord(record, entry);
      ++*replayed;
      continue;
    }
    // A record that cannot be parsed. In the newest segment this is the torn
    // tail of an interrupted append: every record before it is intact, so cut
    // the log there and keep the consistent prefix. Anywhere else the log has
    // valid data after the bad record — genuine corruption, surfaced to the
    // caller rather than silently dropped.
    if (!is_last) {
      return StatusCode::kCorruption;
    }
    status = env_->TruncateFile(path, start);
    if (status != StatusCode::kOk) {
      return StatusCode::kUnavailable;
    }
    m_torn_tails_->Inc();
    return StatusCode::kOk;
  }
}

void DiskStore::ApplyRecord(const Record& record, const IndexEntry& entry) {
  const bool is_pointer = record.type == RecordType::kPointerPut ||
                          record.type == RecordType::kPointerRemove;
  Index* index = is_pointer ? &pointers_ : &files_;
  const bool is_put =
      record.type == RecordType::kPut || record.type == RecordType::kPointerPut;
  auto it = index->find(record.key);
  if (is_put) {
    if (it != index->end()) {
      live_bytes_ -= it->second.record_len;
      garbage_bytes_ += it->second.record_len;
      it->second = entry;
    } else {
      index->emplace(record.key, entry);
    }
    live_bytes_ += entry.record_len;
  } else {
    if (it != index->end()) {
      live_bytes_ -= it->second.record_len;
      garbage_bytes_ += it->second.record_len;
      index->erase(it);
    }
    // The remove record itself is dead weight the next compaction drops.
    garbage_bytes_ += entry.record_len;
  }
}

// --- appends -------------------------------------------------------------------

StatusCode DiskStore::OpenActiveSegment(uint64_t seq, uint64_t existing_size) {
  std::unique_ptr<WritableFile> file;
  StatusCode status = env_->NewWritableFile(SegmentPath(seq), &file);
  if (status != StatusCode::kOk) {
    return status;
  }
  if (existing_size == 0) {
    Bytes header = EncodeSegmentHeader(seq);
    status = file->Append(ByteSpan(header.data(), header.size()));
    if (status != StatusCode::kOk) {
      // A torn header is only harmless in the newest segment; drop the file
      // so the next append can start a fresh one after it.
      file.reset();
      Discard(seq, status);
      return status;
    }
    active_size_ = header.size();
    m_bytes_written_->Inc(header.size());
    segment_seqs_.push_back(seq);
    m_segments_->Add(1);
  } else {
    active_size_ = existing_size;
  }
  active_file_ = std::move(file);
  return StatusCode::kOk;
}

StatusCode DiskStore::SealActiveSegment() {
  if (active_file_ == nullptr) {
    return StatusCode::kOk;
  }
  StatusCode status = active_file_->Sync();
  m_fsyncs_->Inc();
  if (status == StatusCode::kOk) {
    status = active_file_->Close();
  }
  active_file_.reset();
  appends_since_sync_ = 0;
  if (status != StatusCode::kOk) {
    failed_ = status;
  }
  return status;
}

void DiskStore::Discard(uint64_t seq, StatusCode cause) {
  StatusCode status = env_->RemoveFile(SegmentPath(seq));
  if (status != StatusCode::kOk && status != StatusCode::kNotFound) {
    failed_ = cause;
  }
}

StatusCode DiskStore::Append(RecordType type, const U160& key, ByteSpan value) {
  if (failed_ != StatusCode::kOk) {
    return failed_;
  }
  if (active_file_ == nullptr || active_size_ >= options_.segment_target_bytes) {
    StatusCode status = SealActiveSegment();
    if (status != StatusCode::kOk) {
      return status;
    }
    status = OpenActiveSegment(next_seq_++, 0);
    if (status != StatusCode::kOk) {
      return status;
    }
  }
  Bytes record = EncodeRecord(type, key, value);
  IndexEntry entry;
  entry.seg = segment_seqs_.back();
  entry.value_offset = active_size_ + kRecordPrefixSize + kRecordBodyMinSize;
  entry.value_len = static_cast<uint32_t>(value.size());
  entry.record_len = static_cast<uint32_t>(record.size());
  StatusCode status;
  {
    PAST_PROF_SCOPE(m_append_us_);
    status = active_file_->Append(ByteSpan(record.data(), record.size()));
  }
  if (status != StatusCode::kOk) {
    // A full disk may have taken part of the record. Cut it off, or the next
    // record would land past where the index says it starts, and replay
    // would stop at the torn one and drop every record after it.
    if (env_->TruncateFile(SegmentPath(entry.seg), active_size_) !=
        StatusCode::kOk) {
      failed_ = status;
    }
    return status;
  }
  active_size_ += record.size();
  m_bytes_written_->Inc(record.size());
  Record applied;
  applied.type = type;
  applied.key = key;
  ApplyRecord(applied, entry);

  if (options_.sync_every > 0 && ++appends_since_sync_ >= options_.sync_every) {
    status = Sync();
    if (status != StatusCode::kOk) {
      return status;
    }
  }
  return MaybeCompact();
}

StatusCode DiskStore::Sync() {
  if (failed_ != StatusCode::kOk) {
    return failed_;
  }
  if (active_file_ == nullptr) {
    return StatusCode::kOk;
  }
  StatusCode status;
  {
    PAST_PROF_SCOPE(m_fsync_us_);
    status = active_file_->Sync();
  }
  m_fsyncs_->Inc();
  appends_since_sync_ = 0;
  if (status != StatusCode::kOk) {
    failed_ = status;
  }
  return status;
}

// --- compaction ----------------------------------------------------------------

StatusCode DiskStore::MaybeCompact() {
  const uint64_t total = live_bytes_ + garbage_bytes_;
  if (total == 0 || garbage_bytes_ < options_.compact_min_bytes ||
      static_cast<double>(garbage_bytes_) <
          options_.compact_garbage_ratio * static_cast<double>(total)) {
    return StatusCode::kOk;
  }
  return Compact();
}

StatusCode DiskStore::Compact() {
  if (failed_ != StatusCode::kOk) {
    return failed_;
  }
  // Seal first so everything the new segment is built from is durable before
  // any old file is deleted.
  StatusCode status = SealActiveSegment();
  if (status != StatusCode::kOk) {
    return status;
  }
  const uint64_t compact_seq = next_seq_++;
  Index new_files;
  Index new_pointers;
  uint64_t live = 0;
  status = WriteCompacted(compact_seq, &new_files, &new_pointers, &live);
  if (status != StatusCode::kOk) {
    // The old segments are untouched and still indexed. Drop the partial
    // segment: once a newer one follows it, its torn tail would read as
    // mid-log corruption. The next append opens a fresh active segment.
    Discard(compact_seq, status);
    return status;
  }

  // The new segment is durable: retire everything older (best effort; on
  // the default Env, RemoveFile only fails for an already-absent file).
  for (uint64_t seq : segment_seqs_) {
    IgnoreStatus(env_->RemoveFile(SegmentPath(seq)));
  }
  m_segments_->Sub(static_cast<double>(segment_seqs_.size()) - 1.0);
  segment_seqs_.clear();
  segment_seqs_.push_back(compact_seq);
  files_ = std::move(new_files);
  pointers_ = std::move(new_pointers);
  live_bytes_ = live;
  garbage_bytes_ = 0;
  m_bytes_written_->Inc(kSegmentHeaderSize + live);
  m_compactions_->Inc();
  return OpenActiveSegment(next_seq_++, 0);
}

StatusCode DiskStore::WriteCompacted(uint64_t seq, Index* new_files,
                                     Index* new_pointers, uint64_t* live) {
  std::unique_ptr<WritableFile> out;
  StatusCode status = env_->NewWritableFile(SegmentPath(seq), &out);
  if (status != StatusCode::kOk) {
    return status;
  }
  Bytes header = EncodeSegmentHeader(seq);
  status = out->Append(ByteSpan(header.data(), header.size()));
  if (status != StatusCode::kOk) {
    return status;
  }
  uint64_t offset = header.size();
  struct Rewrite {
    const Index* from;
    Index* to;
    RecordType type;
  };
  const Rewrite passes[] = {{&files_, new_files, RecordType::kPut},
                            {&pointers_, new_pointers, RecordType::kPointerPut}};
  for (const Rewrite& pass : passes) {
    for (const auto& [key, old_entry] : *pass.from) {
      Result<Bytes> value = ReadValue(*pass.from, key);
      if (!value.ok()) {
        return value.status();
      }
      Bytes record =
          EncodeRecord(pass.type, key, ByteSpan(value.value().data(),
                                                value.value().size()));
      status = out->Append(ByteSpan(record.data(), record.size()));
      if (status != StatusCode::kOk) {
        return status;
      }
      IndexEntry entry;
      entry.seg = seq;
      entry.value_offset = offset + kRecordPrefixSize + kRecordBodyMinSize;
      entry.value_len = old_entry.value_len;
      entry.record_len = static_cast<uint32_t>(record.size());
      pass.to->emplace(key, entry);
      offset += record.size();
      *live += record.size();
    }
  }
  status = out->Sync();
  m_fsyncs_->Inc();
  if (status == StatusCode::kOk) {
    status = out->Close();
  }
  return status;
}

// --- point operations ------------------------------------------------------------

Result<Bytes> DiskStore::ReadValue(const Index& index, const U160& key) const {
  auto it = index.find(key);
  if (it == index.end()) {
    return StatusCode::kNotFound;
  }
  if (it->second.value_len == 0) {
    return Bytes{};
  }
  Bytes out;
  StatusCode status = env_->ReadRange(SegmentPath(it->second.seg),
                                      it->second.value_offset,
                                      it->second.value_len, &out);
  if (status != StatusCode::kOk) {
    return status;
  }
  return out;
}

StatusCode DiskStore::RemoveFrom(Index* index, RecordType type, const U160& key) {
  if (index->count(key) == 0) {
    return StatusCode::kNotFound;
  }
  return Append(type, key, {});
}

StatusCode DiskStore::Put(const U160& key, ByteSpan value) {
  return Append(RecordType::kPut, key, value);
}

StatusCode DiskStore::Remove(const U160& key) {
  return RemoveFrom(&files_, RecordType::kRemove, key);
}

Result<Bytes> DiskStore::Get(const U160& key) const {
  return ReadValue(files_, key);
}

StatusCode DiskStore::PutPointer(const U160& key, ByteSpan value) {
  return Append(RecordType::kPointerPut, key, value);
}

StatusCode DiskStore::RemovePointer(const U160& key) {
  return RemoveFrom(&pointers_, RecordType::kPointerRemove, key);
}

Result<Bytes> DiskStore::GetPointer(const U160& key) const {
  return ReadValue(pointers_, key);
}

std::vector<U160> DiskStore::Keys() const {
  std::vector<U160> out;
  out.reserve(files_.size());
  for (const auto& [key, entry] : files_) {
    out.push_back(key);
  }
  return out;
}

std::vector<U160> DiskStore::PointerKeys() const {
  std::vector<U160> out;
  out.reserve(pointers_.size());
  for (const auto& [key, entry] : pointers_) {
    out.push_back(key);
  }
  return out;
}

}  // namespace past
