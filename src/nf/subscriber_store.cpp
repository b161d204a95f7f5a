#include "nf/subscriber_store.h"

#include <stdexcept>

namespace shield5g::nf {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::size_t kInitialSlots = 64;

// Max fill before the slot array doubles. 13/16 keeps probe chains
// short while wasting at most ~1.25 slots (5 bytes) per subscriber.
bool over_fill(std::size_t rows, std::size_t slots) noexcept {
  return rows * 16 >= slots * 13;
}

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = kInitialSlots;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

std::uint64_t supi_hash(std::string_view supi) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : supi) {
    h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  }
  return h;
}

SubscriberStore::SubscriberStore() : index_(kInitialSlots, 0u) {}

void SubscriberStore::reserve(std::size_t n) {
  supi_.reserve(n);
  k_.reserve(n);
  opc_.reserve(n);
  sqn_.reserve(n);
  amf_.reserve(n);
  const std::size_t slots = next_pow2(n * 2);
  if (slots > index_.size()) rehash(slots);
}

std::uint32_t SubscriberStore::find_slot(
    const HashedSupi& supi) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = static_cast<std::size_t>(supi.hash) & mask;
  while (index_[i] != 0 && supi_[index_[i] - 1] != supi.supi) {
    i = (i + 1) & mask;
  }
  return static_cast<std::uint32_t>(i);
}

void SubscriberStore::prefetch(const HashedSupi& supi) const noexcept {
  __builtin_prefetch(
      &index_[static_cast<std::size_t>(supi.hash) & (index_.size() - 1)]);
}

std::uint32_t SubscriberStore::row(std::string_view supi) const noexcept {
  const std::uint32_t slot = index_[find_slot(HashedSupi(supi))];
  return slot == 0 ? kNoRow : slot - 1;
}

std::uint32_t SubscriberStore::provision(const SubscriberRecord& record) {
  return provision(HashedSupi(record.supi.value), record.k, record.opc,
                   record.sqn, record.amf_field);
}

std::uint32_t SubscriberStore::provision(const HashedSupi& supi,
                                         SecretView k, SecretView opc,
                                         std::uint64_t sqn,
                                         ByteView amf_field) {
  if (k.size() != 16 || opc.size() != 16) {
    throw std::invalid_argument("SubscriberStore: K/OPc must be 16 bytes");
  }
  if (amf_field.size() != 2) {
    throw std::invalid_argument("SubscriberStore: AMF field must be 2 bytes");
  }
  if (over_fill(supi_.size() + 1, index_.size())) rehash(index_.size() * 2);

  // K and OPc are copied secret -> secret into the fixed columns; the
  // raw range never reaches a sink here.
  const std::uint32_t slot = find_slot(supi);
  if (const std::uint32_t r = index_[slot]; r != 0) {
    const std::uint32_t row = r - 1;
    k_[row] = Secret<16>(k.unsafe_bytes());
    opc_[row] = Secret<16>(opc.unsafe_bytes());
    sqn_[row] = sqn;
    amf_[row] = {amf_field[0], amf_field[1]};
    return row;
  }
  // New row: intern the identity once; the row number is stable from
  // here on (a later replace reuses it).
  supi_.push_back(ids_.intern(supi.supi));
  k_.emplace_back(k.unsafe_bytes());
  opc_.emplace_back(opc.unsafe_bytes());
  sqn_.push_back(sqn);
  amf_.push_back({amf_field[0], amf_field[1]});
  const auto row = static_cast<std::uint32_t>(supi_.size() - 1);
  index_[slot] = row + 1;
  return row;
}

void SubscriberStore::rehash(std::size_t slots) {
  index_.assign(slots, 0u);
  const std::size_t mask = slots - 1;
  for (std::uint32_t r = 0; r < supi_.size(); ++r) {
    std::size_t i = static_cast<std::size_t>(supi_hash(supi_[r])) & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = r + 1;
  }
}

std::size_t SubscriberStore::bytes_reserved() const noexcept {
  return index_.capacity() * sizeof(std::uint32_t) +
         supi_.capacity() * sizeof(std::string_view) +
         k_.capacity() * sizeof(Secret<16>) +
         opc_.capacity() * sizeof(Secret<16>) +
         sqn_.capacity() * sizeof(std::uint64_t) +
         amf_.capacity() * sizeof(std::array<std::uint8_t, 2>) +
         ids_.bytes_reserved();
}

}  // namespace shield5g::nf
