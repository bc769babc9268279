// serve_mixed's job generator and record checks, exposed for the tests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

constexpr std::size_t kChunkSize = 64;
constexpr std::size_t kServeDeployments = 16;

enum class JobKind {
  kIcff,       ///< light: slotted broadcast
  kCff,        ///< light: slotted broadcast
  kValidate,   ///< light: structure validation
  kMulticast,  ///< light: pruned multicast
  kGather,     ///< light: convergecast
  kReliable,   ///< heavy: reliable iCFF under 5% loss
  kDfo,        ///< heavy: token tour
  kRival,      ///< heavy: counter-based suppression (flat arena rival)
  kMutating,   ///< private build: join/move or churn, then a broadcast
  kMalformed,  ///< must get an error record
};

const char* jobKindName(JobKind k);

struct GeneratedJob {
  JobKind kind = JobKind::kIcff;
  std::size_t deployment = 0;
  std::uint32_t source = 0;
  std::string line;
};

/// Job lines [chunk * kChunkSize, (chunk + 1) * kChunkSize) of the stream
/// for `seed`: a pure function of (seed, chunk).
std::vector<GeneratedJob> generateChunk(std::uint64_t seed, std::size_t chunk);

/// Reads the number after "key": in a record line.
bool recordNumber(std::string_view record, std::string_view key, double& out);

/// Empty when `record` is the right answer to `job` at stream position
/// `index` of its chunk; otherwise the problem.
std::string checkRecord(const GeneratedJob& job, std::size_t index,
                        std::string_view record);

}  // namespace pb
