#ifndef CLOUDYBENCH_SUT_PROFILES_H_
#define CLOUDYBENCH_SUT_PROFILES_H_

#include <string>
#include <string_view>
#include <vector>

#include "cloud/cluster.h"
#include "util/result.h"

namespace cloudybench::sut {

/// The five systems under test from the paper's Table IV (commercial names
/// anonymized there; our simulated stand-ins model the stated
/// architectures — see DESIGN.md §1 for the substitution table).
enum class SutKind {
  kAwsRds,  ///< PostgreSQL on local NVMe; coupled compute+storage.
  kCdb1,    ///< Aurora-like storage disaggregation, redo pushdown.
  kCdb2,    ///< HyperScale-like log/page service split, elastic pool.
  kCdb3,    ///< Neon-like compute-log-storage split, CU pause/resume.
  kCdb4,    ///< PolarDB-MP-like memory disaggregation over RDMA.
};

const char* SutName(SutKind kind);
/// Case-insensitive inverse of SutName that also takes the short forms:
/// "rds" / "aws rds", "cdb1" ... "cdb4". Anything else is kInvalidArgument.
util::Result<SutKind> ParseSut(std::string_view name);
std::vector<SutKind> AllSuts();

/// Builds a full cluster configuration for one SUT.
///
/// `time_scale` compresses the *control-plane* time constants (autoscaler
/// intervals, cooldowns, pause timers) so elasticity experiments can run
/// with shorter time slots than the paper's 60 s while keeping every
/// scaling behaviour proportionally identical. Data-plane constants
/// (per-op CPU, I/O latencies, replication cadence) and the fail-over
/// recovery model stay absolute. time_scale 1.0 == paper timing.
cloud::ClusterConfig MakeProfile(SutKind kind, double time_scale = 1.0);

/// Pins the autoscaler so the SUT runs at its fixed/maximum configuration
/// (used by the throughput and P-Score evaluations, where serverless
/// variability is not under test).
void FreezeAtMaxCapacity(cloud::ClusterConfig* config);

/// Serverless conversion for elasticity runs: keeps the profiled autoscaler
/// policy, starts the node at the policy's vCore floor and lets memory (and
/// with it the buffer) follow vCores. Fixed-policy SUTs (RDS, CDB4) stay
/// provisioned — exactly the contrast the elasticity experiments evaluate.
void EnableServerless(cloud::ClusterConfig* config);

/// True if the SUT has a serverless/autoscaling offering (Table IV).
bool IsServerless(SutKind kind);

}  // namespace cloudybench::sut

#endif  // CLOUDYBENCH_SUT_PROFILES_H_
