#include "campaign/shard_runner.hpp"

#include <bit>
#include <stdexcept>

#include "campaign/store.hpp"

namespace bansim::campaign {
namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[off_ + static_cast<std::size_t>(
                                                        i)])
           << (8 * i);
    }
    off_ += 8;
    return v;
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               bytes_[off_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    off_ += 4;
    return v;
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>(bytes_[off_] |
                                              (bytes_[off_ + 1] << 8));
    off_ += 2;
    return v;
  }
  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return bytes_[off_++];
  }
  void expect_end() const {
    if (off_ != bytes_.size()) {
      throw StoreError("shard payload has trailing bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - off_ < n) {
      throw StoreError("shard payload truncated");
    }
  }
  const std::vector<std::uint8_t>& bytes_;
  std::size_t off_{0};
};

}  // namespace

std::vector<std::uint8_t> encode_shard_result(const ShardResult& result) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + result.rows.size() * 80);
  put_u64(out, result.shard);
  put_u64(out, result.rows.size());
  for (const energy::CampaignRunRow& row : result.rows) {
    put_u64(out, row.seed);
    put_f64(out, row.total_mj);
    put_f64(out, row.radio_mj);
    put_f64(out, row.mcu_mj);
    put_f64(out, row.asic_mj);
    put_f64(out, row.lifetime_hours);
    put_f64(out, row.join_ms);
    put_u64(out, row.data_packets);
    put_u64(out, row.delivered_packets);
    out.push_back(row.joined ? 1 : 0);
  }
  return out;
}

ShardResult decode_shard_result(const std::vector<std::uint8_t>& payload) {
  PayloadReader in(payload);
  ShardResult result;
  result.shard = in.u64();
  const std::uint64_t rows = in.u64();
  // A CRC-valid record can still carry an absurd count if the writer was
  // buggy; bound it by what the payload could physically hold.
  if (rows > payload.size() / 73) {
    throw StoreError("shard payload row count exceeds payload size");
  }
  result.rows.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    energy::CampaignRunRow row;
    row.seed = in.u64();
    row.total_mj = in.f64();
    row.radio_mj = in.f64();
    row.mcu_mj = in.f64();
    row.asic_mj = in.f64();
    row.lifetime_hours = in.f64();
    row.join_ms = in.f64();
    row.data_packets = in.u64();
    row.delivered_packets = in.u64();
    row.joined = in.u8() != 0;
    result.rows.push_back(row);
  }
  in.expect_end();
  return result;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  put_u64(out, checkpoint.shards_completed);
  put_u64(out, checkpoint.last_shard);
  return out;
}

Checkpoint decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  PayloadReader in(payload);
  Checkpoint checkpoint;
  checkpoint.shards_completed = in.u64();
  checkpoint.last_shard = in.u64();
  in.expect_end();
  return checkpoint;
}

const char* to_string(QuarantineRecord::Reason reason) {
  switch (reason) {
    case QuarantineRecord::Reason::kManual:
      return "manual";
    case QuarantineRecord::Reason::kHang:
      return "hang";
    case QuarantineRecord::Reason::kCrash:
      return "crash";
    case QuarantineRecord::Reason::kExit:
      return "exit";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_quarantine(const QuarantineRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(14);
  put_u64(out, record.shard);
  put_u32(out, record.attempts);
  put_u16(out, static_cast<std::uint16_t>(record.reason));
  return out;
}

QuarantineRecord decode_quarantine(const std::vector<std::uint8_t>& payload) {
  PayloadReader in(payload);
  QuarantineRecord record;
  record.shard = in.u64();
  record.attempts = in.u32();
  const std::uint16_t reason = in.u16();
  if (reason > static_cast<std::uint16_t>(QuarantineRecord::Reason::kExit)) {
    throw StoreError("quarantine payload has unknown reason " +
                     std::to_string(reason));
  }
  record.reason = static_cast<QuarantineRecord::Reason>(reason);
  in.expect_end();
  return record;
}

ShardRunner::ShardRunner(CampaignSpec spec, core::BanConfig base)
    : spec_(std::move(spec)),
      base_(std::move(base)),
      variants_(variants(spec_)) {
  window_.measure = spec_.measure;
  window_.settle = spec_.settle;
  window_.join_deadline = spec_.join_deadline;
}

ShardResult ShardRunner::run(const ShardSpec& shard) {
  if (shard.variant >= variants_.size()) {
    throw std::out_of_range("shard names variant " +
                            std::to_string(shard.variant) + " of " +
                            std::to_string(variants_.size()));
  }
  auto gen_it = generators_.find(shard.variant);
  if (gen_it == generators_.end()) {
    gen_it = generators_
                 .emplace(shard.variant,
                          core::PopulationGenerator{
                              variant_config(base_, variants_[shard.variant]),
                              population_config(spec_)})
                 .first;
  }
  ShardResult result;
  result.shard = shard.index;
  result.rows.reserve(shard.count);
  for (std::size_t i = 0; i < shard.count; ++i) {
    result.rows.push_back(
        core::run_patient(gen_it->second, window_, shard.first + i));
    if (progress_) progress_(i + 1);
  }
  return result;
}

}  // namespace bansim::campaign
