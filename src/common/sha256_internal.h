// SHA-256 compression kernels behind Sha256. Internal to the library: tests,
// fuzz harnesses and benchmarks include it to drive each kernel directly and
// check that they agree; everything else hashes through Sha256.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sha256.h"

namespace sebdb {
namespace sha256_internal {

/// The portable kernel; compiled on every target.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t nblocks);

/// The SHA-NI kernel, or nullptr when this build targets no x86 CPU or the
/// running CPU lacks the SHA extensions.
Sha256::Kernel ShaNiKernel();

/// The kernel a default-constructed Sha256 uses: SHA-NI when ShaNiKernel()
/// has one, the portable kernel otherwise. Chosen once, on first use.
Sha256::Kernel ActiveKernel();

}  // namespace sha256_internal
}  // namespace sebdb
