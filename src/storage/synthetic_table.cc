#include "storage/synthetic_table.h"

#include <algorithm>

#include "util/logging.h"

namespace cloudybench::storage {

namespace {
constexpr int32_t kPageBytes = 8192;
}

SyntheticTable::SyntheticTable(TableSchema schema, int64_t scale_factor)
    : schema_(std::move(schema)) {
  CB_CHECK_GT(scale_factor, 0);
  CB_CHECK_GT(schema_.row_bytes, 0);
  CB_CHECK(schema_.generator != nullptr) << "table needs a row generator";
  base_count_ = schema_.base_rows_per_sf * scale_factor;
  CB_CHECK_GT(base_count_, 0);
  next_key_ = base_count_;
  live_rows_ = base_count_;
  rows_per_page_ = std::max(1, kPageBytes / schema_.row_bytes);
}

std::optional<Row> SyntheticTable::Get(int64_t key) const {
  if (InTail(key)) {
    if (const Row* row = TailFind(key)) return *row;
    return std::nullopt;
  }
  if (const Row* row = overlay_.Find(key)) return *row;
  if (tombstones_.Contains(key)) return std::nullopt;
  if (InBase(key)) return schema_.generator(key);
  return std::nullopt;
}

bool SyntheticTable::Exists(int64_t key) const {
  if (InTail(key)) return TailFind(key) != nullptr;
  if (overlay_.Contains(key)) return true;
  if (tombstones_.Contains(key)) return false;
  return InBase(key);
}

util::Status SyntheticTable::Insert(const Row& row) {
  if (Exists(row.key)) {
    return util::Status::AlreadyExists(schema_.name + " key " +
                                       std::to_string(row.key));
  }
  if (InTail(row.key)) {
    TailInsert(row);
  } else {
    overlay_.InsertOrAssign(row.key, row);
    tombstones_.Erase(row.key);
  }
  next_key_ = std::max(next_key_, row.key + 1);
  ++live_rows_;
  return util::Status::OK();
}

util::Status SyntheticTable::Update(const Row& row) {
  if (InTail(row.key)) {
    Row* existing = TailFind(row.key);
    if (existing == nullptr) {
      return util::Status::NotFound(schema_.name + " key " +
                                    std::to_string(row.key));
    }
    *existing = row;
    return util::Status::OK();
  }
  // Fast path: the row is already in the overlay (every update after the
  // first for a given key) — one probe finds the slot, overwrite in place.
  if (Row* existing = overlay_.Find(row.key)) {
    *existing = row;
    return util::Status::OK();
  }
  if (tombstones_.Contains(row.key) || !InBase(row.key)) {
    return util::Status::NotFound(schema_.name + " key " +
                                  std::to_string(row.key));
  }
  overlay_.InsertOrAssign(row.key, row);
  return util::Status::OK();
}

util::Status SyntheticTable::Delete(int64_t key) {
  if (!Exists(key)) {
    return util::Status::NotFound(schema_.name + " key " +
                                  std::to_string(key));
  }
  if (InTail(key)) {
    TailErase(key);
  } else {
    overlay_.Erase(key);
    if (InBase(key)) tombstones_.Insert(key);
  }
  --live_rows_;
  return util::Status::OK();
}

void SyntheticTable::TailInsert(const Row& row) {
  size_t chunk = static_cast<size_t>((row.key - base_count_) / kTailChunkRows);
  if (chunk >= tail_.size()) {
    // The highest chunk is kept while empty because the next serial
    // inserts land in it; once a higher one opens it is an ordinary chunk.
    if (!tail_.empty() && tail_.back()->live == 0) {
      tail_.back().reset();
    }
    tail_.resize(chunk + 1);
  }
  if (tail_[chunk] == nullptr) tail_[chunk] = std::make_unique<TailChunk>();
  *TailSlot(row.key) = row;
  ++tail_[chunk]->live;
  ++tail_rows_;
}

void SyntheticTable::TailErase(int64_t key) {
  size_t chunk = static_cast<size_t>((key - base_count_) / kTailChunkRows);
  TailSlot(key)->key = 0;  // a hole
  --tail_rows_;
  if (--tail_[chunk]->live == 0 && chunk + 1 < tail_.size()) {
    tail_[chunk].reset();
  }
}

size_t SyntheticTable::tail_chunks() const {
  return static_cast<size_t>(
      std::count_if(tail_.begin(), tail_.end(),
                    [](const auto& chunk) { return chunk != nullptr; }));
}

uint64_t SyntheticTable::ContentHash() const {
  // XOR of per-entry hashes is order independent across the hash table's
  // iteration order, which is exactly what we need. A row hashes the same
  // whether it is stored in the overlay or in the tail.
  constexpr uint64_t kRowMix = 0x2545f4914f6cdd1dULL;
  uint64_t h = 0;
  overlay_.ForEach(
      [&h](int64_t, const Row& row) { h ^= row.Hash() * kRowMix; });
  for (size_t chunk = 0; chunk < tail_.size(); ++chunk) {
    if (tail_[chunk] == nullptr) continue;
    int64_t first = base_count_ + static_cast<int64_t>(chunk) * kTailChunkRows;
    for (int64_t i = 0; i < kTailChunkRows; ++i) {
      const Row& row = tail_[chunk]->rows[i];
      if (row.key == first + i) h ^= row.Hash() * kRowMix;
    }
  }
  tombstones_.ForEach([&h](int64_t key) {
    h ^= (static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL) *
         0xff51afd7ed558ccdULL;
  });
  return h;
}

uint64_t SyntheticTable::StateHash() const {
  return ContentHash() ^
         static_cast<uint64_t>(next_key_) * 0xc4ceb9fe1a85ec53ULL;
}

void SyntheticTable::CopyContentsFrom(const SyntheticTable& other) {
  CB_CHECK_EQ(base_count_, other.base_count_)
      << "schema/SF mismatch in CopyContentsFrom";
  overlay_ = other.overlay_;
  tombstones_ = other.tombstones_;
  tail_.clear();
  tail_.resize(other.tail_.size());
  for (size_t chunk = 0; chunk < tail_.size(); ++chunk) {
    if (other.tail_[chunk] != nullptr) {
      tail_[chunk] = std::make_unique<TailChunk>(*other.tail_[chunk]);
    }
  }
  tail_rows_ = other.tail_rows_;
  next_key_ = other.next_key_;
  live_rows_ = other.live_rows_;
}

void TableSet::CopyContentsFrom(const TableSet& other) {
  CB_CHECK_EQ(tables_.size(), other.tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    tables_[i]->CopyContentsFrom(*other.tables_[i]);
  }
}

SyntheticTable* TableSet::Create(TableSchema schema, int64_t scale_factor) {
  CB_CHECK(by_name_.count(schema.name) == 0)
      << "duplicate table " << schema.name;
  schema.id = static_cast<TableId>(tables_.size());
  auto table = std::make_unique<SyntheticTable>(std::move(schema), scale_factor);
  SyntheticTable* raw = table.get();
  by_name_[raw->name()] = raw;
  tables_.push_back(std::move(table));
  return raw;
}

SyntheticTable* TableSet::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

SyntheticTable* TableSet::FindById(TableId id) const {
  if (id < 0 || static_cast<size_t>(id) >= tables_.size()) return nullptr;
  return tables_[static_cast<size_t>(id)].get();
}

int64_t TableSet::TotalLogicalBytes() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t->logical_bytes();
  return total;
}

uint64_t TableSet::StateHash() const {
  uint64_t h = 0;
  for (const auto& t : tables_) {
    h = h * 1099511628211ULL ^ t->StateHash();
  }
  return h;
}

uint64_t TableSet::ContentHash() const {
  uint64_t h = 0;
  for (const auto& t : tables_) {
    h = h * 1099511628211ULL ^ t->ContentHash();
  }
  return h;
}

}  // namespace cloudybench::storage
