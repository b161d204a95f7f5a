// Columnar (SoA) subscriber credential store — the UDR's backing table.
//
// A `std::map<Supi, SubscriberRecord>` holds eight subscribers fine and
// a million badly: every record costs three heap nodes (tree node + two
// SecretBytes buffers), ~200 bytes of allocator overhead, and a
// pointer-chasing lookup that misses cache on every level. This store
// flattens the table into parallel columns sized exactly by content:
//
//   index   open-addressed power-of-two slot array (FNV-1a of the SUPI,
//           linear probing) mapping SUPI -> row
//   columns K / OPc as fixed Secret<16> (in-place, zeroize-on-destruct,
//           no heap per key), SQN as u64, AMF field as 2 bytes
//   supi    interned into a common/arena.h bump arena; the column holds
//           views — one allocation per 64 KiB of identities, not per row
//
// ~56 bytes + SUPI text per subscriber all-in, visiting exactly two
// cache lines per hit (slot probe + row columns touched).
//
// Semantics match the map it replaces: provision() inserts or replaces,
// rows are stable once assigned (a replace reuses the row), SQN updates
// write in place. Threading: the store belongs to one UDR instance, and
// a UDR belongs to one shard's slice (DESIGN.md §16) — thread-confined
// by construction, like the arena beneath it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/secret.h"
#include "common/thread_annotations.h"
#include "nf/types.h"

namespace shield5g::nf {

/// FNV-1a over the SUPI text: the store's slot hash and the serving
/// plane's home-shard hash (load/serving.h) — one function, so "which
/// shard owns this subscriber" and "which slot holds it" never disagree.
std::uint64_t supi_hash(std::string_view supi) noexcept;

/// A SUPI with its supi_hash, computed once: a bulk loop builds it a few
/// rows ahead to prefetch() the SUPI's index slot, then inserts with it.
struct HashedSupi {
  explicit HashedSupi(std::string_view s) noexcept
      : supi(s), hash(supi_hash(s)) {}

  std::string_view supi;
  std::uint64_t hash;
};

class SubscriberStore {
 public:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  SubscriberStore();

  SubscriberStore(const SubscriberStore&) = delete;
  SubscriberStore& operator=(const SubscriberStore&) = delete;

  /// Pre-sizes columns and the slot index for `n` subscribers, so a
  /// bulk provision run performs no rehash or column growth.
  void reserve(std::size_t n);

  /// Inserts or replaces the record's credentials; returns the row.
  /// K/OPc must be 16 bytes and the AMF field 2 (the SBI provisioning
  /// route validates the same bounds).
  std::uint32_t provision(const SubscriberRecord& record);

  /// The same insert from views, so a bulk loop can derive rows into
  /// stack buffers and insert them without building a record; a new
  /// row's columns are constructed in place. Same checks as above.
  std::uint32_t provision(const HashedSupi& supi, SecretView k,
                          SecretView opc, std::uint64_t sqn,
                          ByteView amf_field);

  /// Starts loading the index slot `supi` hashes to, so that a
  /// provision() of it a few rows later finds the slot in cache.
  void prefetch(const HashedSupi& supi) const noexcept;

  /// Row holding `supi`, or kNoRow.
  std::uint32_t row(std::string_view supi) const noexcept;

  std::size_t size() const noexcept { return supi_.size(); }

  // ---- Row accessors (caller guarantees row < size()) ------------------
  std::string_view supi(std::uint32_t row) const noexcept {
    return supi_[row];
  }
  const Secret<16>& k(std::uint32_t row) const noexcept { return k_[row]; }
  const Secret<16>& opc(std::uint32_t row) const noexcept { return opc_[row]; }
  std::uint64_t sqn(std::uint32_t row) const noexcept { return sqn_[row]; }
  void set_sqn(std::uint32_t row, std::uint64_t sqn) noexcept {
    sqn_[row] = sqn;
  }
  ByteView amf_field(std::uint32_t row) const noexcept {
    return ByteView(amf_[row].data(), amf_[row].size());
  }
  /// 48-bit big-endian SQN, as the SBI hex fields carry it.
  Bytes sqn_bytes(std::uint32_t row) const { return be_bytes(sqn_[row], 6); }

  /// Approximate resident footprint: column capacities, the slot index
  /// and the identity arena (the bench's per-subscriber byte metric).
  std::size_t bytes_reserved() const noexcept;

 private:
  void rehash(std::size_t slots);
  std::uint32_t find_slot(const HashedSupi& supi) const noexcept;

  // Slot values are row + 1; 0 marks an empty slot.
  std::vector<std::uint32_t> index_ SHIELD_THREAD_CONFINED;
  std::vector<std::string_view> supi_;
  std::vector<Secret<16>> k_;
  std::vector<Secret<16>> opc_;
  std::vector<std::uint64_t> sqn_;
  std::vector<std::array<std::uint8_t, 2>> amf_;
  Arena ids_;
};

}  // namespace shield5g::nf
