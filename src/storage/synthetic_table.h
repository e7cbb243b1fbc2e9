#ifndef CLOUDYBENCH_STORAGE_SYNTHETIC_TABLE_H_
#define CLOUDYBENCH_STORAGE_SYNTHETIC_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/row.h"
#include "util/flat_hash.h"
#include "util/result.h"
#include "util/status.h"

namespace cloudybench::storage {

/// Deterministic contents of the base row with the given key. Every
/// workload's generator is a pure function of the key, so a plain function
/// pointer suffices (a captureless lambda converts to one).
using RowGenerator = Row (*)(int64_t key);

/// Static description of a table. `base_rows_per_sf * scale_factor` rows with
/// keys [0, base_count) exist logically at load time; their contents come
/// from the deterministic `generator`.
struct TableSchema {
  std::string name;
  TableId id = 0;
  /// Rows per unit of scale factor (ORDERLINE is 10x CUSTOMER/ORDERS,
  /// matching the paper's scaling model).
  int64_t base_rows_per_sf = 0;
  /// Average on-page footprint of one row, for page-count math.
  int32_t row_bytes = 64;
  /// Deterministic base-row contents for any key in [0, base_count).
  RowGenerator generator = nullptr;
};

/// A copy-on-write synthetic table.
///
/// The paper loads up to 20.8 GB (SF100) of raw data; what that data size
/// actually changes in the experiments is the ratio of working set to buffer
/// pool. SyntheticTable preserves exactly that while storing only the
/// *mutated* rows: reads of untouched keys are served by the deterministic
/// generator, and the buffer pool above sees the full SF-scaled page address
/// space (PageOf spans all logical rows). This substitution is documented in
/// DESIGN.md §1.
///
/// Mutations live in two places, chosen by key range alone:
///   - the *tail*: rows with keys in [base_count, base_count +
///     kMaxTailRows), i.e. serial-key inserts. Stored densely at index
///     `key - base_count` in fixed-size chunks, so growth never rehashes or
///     copies and a chunk never touched is never allocated. A slot holds
///     its row iff the stored key equals the slot's key; a hole (a key that
///     was never inserted, e.g. an aborted transaction's, or a deleted row)
///     reads key 0, which no tail key can be because base_count > 0. A
///     chunk is freed once every row in it is deleted, unless it is the
///     highest chunk, where the next inserts land.
///   - the *overlay* + tombstone set: mutations of every other key —
///     updates and deletes of base rows, and re-inserts of deleted base
///     rows (plus inserts of keys outside the tail's range).
///
/// Concurrency: the engine is a discrete-event simulation on one thread, so
/// no latching is needed; transactional isolation is provided by the lock
/// manager above this layer.
class SyntheticTable {
 public:
  SyntheticTable(TableSchema schema, int64_t scale_factor);

  SyntheticTable(const SyntheticTable&) = delete;
  SyntheticTable& operator=(const SyntheticTable&) = delete;

  const TableSchema& schema() const { return schema_; }
  TableId id() const { return schema_.id; }
  const std::string& name() const { return schema_.name; }

  /// Logical rows generated at load time.
  int64_t base_count() const { return base_count_; }
  /// base - deleted + inserted.
  int64_t live_rows() const { return live_rows_; }
  /// Largest key ever allocated (reads of "latest" data use this).
  int64_t max_key() const { return next_key_ - 1; }

  /// Reserves the next insert key (monotonically increasing, like the
  /// DEFAULT serial column in the paper's T1 INSERT).
  int64_t AllocateKey() { return next_key_++; }

  /// Point read. nullopt when the key was never created or was deleted.
  std::optional<Row> Get(int64_t key) const;
  bool Exists(int64_t key) const;

  /// Insert a brand-new row (key from AllocateKey or any unused key).
  util::Status Insert(const Row& row);
  /// Overwrite an existing row.
  util::Status Update(const Row& row);
  /// Delete an existing row.
  util::Status Delete(int64_t key);

  /// Page addressing for the buffer pool: fixed-fanout mapping from key to
  /// page number across the *logical* key space.
  int32_t rows_per_page() const { return rows_per_page_; }
  int64_t PageOf(int64_t key) const { return key / rows_per_page_; }
  /// Number of logical pages currently addressable.
  int64_t pages() const { return PageOf(max_key()) + 1; }
  /// Logical bytes (live rows x row size) — the "Storage/GB" meter input.
  int64_t logical_bytes() const { return live_rows_ * schema_.row_bytes; }

  /// Order-independent hash of the table delta (overlay + tombstones +
  /// allocator position). Two tables with the same schema/SF and the same
  /// hash hold identical logical contents — the replica-equivalence property
  /// tests rely on this.
  uint64_t StateHash() const;

  /// StateHash minus the allocator position: identical logical *rows* only.
  /// Serial keys allocated by transactions that later aborted advance
  /// next_key_ on the primary but are never logged (sequence allocation is
  /// not transactional, as in real engines), so a replica built purely from
  /// the redo stream legitimately lags the allocator while holding the same
  /// rows. Convergence checks that compare across the log stream use this.
  uint64_t ContentHash() const;

  /// Number of stored (mutated or inserted) rows, overlay and tail;
  /// memory accounting and tests.
  size_t overlay_rows() const { return overlay_.size() + tail_rows_; }
  size_t tombstones() const { return tombstones_.size(); }
  /// Tail chunks currently allocated; memory accounting and tests.
  size_t tail_chunks() const;

  /// Rows per tail chunk (48 KiB of rows): small enough that a table
  /// with few inserts costs less than the overlay it replaces.
  static constexpr int64_t kTailChunkRows = 1024;
  /// Keys at or past base_count + kMaxTailRows go to the overlay, which
  /// bounds the chunk directory at 128 KiB however far past max_key() an
  /// insert lands.
  static constexpr int64_t kMaxTailRows = kTailChunkRows << 14;

  /// Copies another table's logical contents (schema/SF must match). Used
  /// to seed a replica added while the cluster already has mutations.
  void CopyContentsFrom(const SyntheticTable& other);

 private:
  bool InBase(int64_t key) const { return key >= 0 && key < base_count_; }
  bool InTail(int64_t key) const {
    return key >= base_count_ && key - base_count_ < kMaxTailRows;
  }

  struct TailChunk {
    int64_t live = 0;  // rows present in `rows`
    Row rows[kTailChunkRows];  // value-initialized: every slot a hole
  };

  /// The tail slot of `key` (InTail), or nullptr if its chunk is absent.
  Row* TailSlot(int64_t key) const {
    uint64_t index = static_cast<uint64_t>(key - base_count_);
    uint64_t chunk = index / kTailChunkRows;
    if (chunk >= tail_.size() || tail_[chunk] == nullptr) return nullptr;
    return &tail_[chunk]->rows[index % kTailChunkRows];
  }
  /// The tail row stored under `key` (InTail), or nullptr for a hole.
  Row* TailFind(int64_t key) const {
    Row* slot = TailSlot(key);
    return slot != nullptr && slot->key == key ? slot : nullptr;
  }
  void TailInsert(const Row& row);
  void TailErase(int64_t key);

  TableSchema schema_;
  int64_t base_count_;
  int64_t next_key_;
  int64_t live_rows_;
  int32_t rows_per_page_;
  // Flat open-addressing containers (util/flat_hash.h): every update of a
  // mutated row is a single probe into one contiguous array, and the
  // copy-on-write delta stays cache-dense. StateHash stays valid because it
  // XOR-folds entries order-independently.
  util::FlatMap64<Row> overlay_;
  util::FlatSet64 tombstones_;
  // The dense insert tail: chunk i holds keys base_count + i *
  // kTailChunkRows onward; null for a chunk never touched or freed.
  std::vector<std::unique_ptr<TailChunk>> tail_;
  size_t tail_rows_ = 0;
};

/// Name -> table registry owned by one engine instance (a compute node's
/// logical database, or a replica's copy).
class TableSet {
 public:
  /// Creates and registers a table; id is assigned by registration order.
  SyntheticTable* Create(TableSchema schema, int64_t scale_factor);

  SyntheticTable* Find(const std::string& name) const;
  SyntheticTable* FindById(TableId id) const;

  const std::vector<std::unique_ptr<SyntheticTable>>& tables() const {
    return tables_;
  }
  int64_t TotalLogicalBytes() const;

  /// Copies every table's contents from `other` (same schemas required).
  void CopyContentsFrom(const TableSet& other);

  /// Combined state hash across tables (replica equivalence).
  uint64_t StateHash() const;
  /// Combined content hash (rows only; see SyntheticTable::ContentHash).
  uint64_t ContentHash() const;

 private:
  std::vector<std::unique_ptr<SyntheticTable>> tables_;
  std::unordered_map<std::string, SyntheticTable*> by_name_;
};

}  // namespace cloudybench::storage

#endif  // CLOUDYBENCH_STORAGE_SYNTHETIC_TABLE_H_
