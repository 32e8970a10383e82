/**
 * @file
 * 256-bit bit-sliced syndrome kernel. This translation unit is the only
 * one compiled with -mavx2 (see src/ecc/CMakeLists.txt); it deliberately
 * includes almost nothing so no shared inline function gets an AVX2
 * instantiation that the linker could pick for the rest of the build.
 * The kernel is reached only after `simdLevelSupported(Avx2)` verified
 * the CPU, so executing VEX instructions here is safe.
 */

#include "ecc/gf256.h"

#include "common/log.h"

#if defined(RF_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <array>
#include <cstring>

namespace relaxfault {

namespace {

/**
 * Constant planes for the bit decomposition of S1: plane b holds, at
 * byte 4d+w, the product alpha^d * x^b — the contribution of input bit
 * b of device d's symbol (any codeword lane w; the constant only
 * depends on d). S1 then falls out as
 *   S1 = XOR_b ( byteMask(line bit-plane b) AND plane_b )
 * folded down to one 32-bit word per codeword lane.
 */
struct Planes
{
    alignas(32) uint8_t bytes[8][Gf256Batched::kLineBytes];
};

constexpr Planes kPlanes = [] {
    Planes planes{};
    for (unsigned bit = 0; bit < 8; ++bit) {
        for (unsigned d = 0; d < 18; ++d) {
            const uint8_t value =
                gf256ct::mul(gf256ct::alphaPow(d), uint8_t(1u << bit));
            for (unsigned w = 0; w < 4; ++w)
                planes.bytes[bit][4 * d + w] = value;
        }
    }
    return planes;
}();

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** XOR-fold a ymm register down to one uint64. */
inline uint64_t
fold256(__m256i v)
{
    const __m128i folded128 = _mm_xor_si128(
        _mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    return static_cast<uint64_t>(_mm_extract_epi64(folded128, 0)) ^
           static_cast<uint64_t>(_mm_extract_epi64(folded128, 1));
}

} // namespace

PackedLineSyndromes
Gf256Batched::lineSyndromesAvx2(const uint8_t *line)
{
    PackedLineSyndromes result;

    // The 72-byte line as two ymm chunks plus a uint64 tail.
    const __m256i chunk0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(line));
    const __m256i chunk1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(line + 32));
    const uint64_t tail = load64(line + 64);

    // S0: XOR-fold everything. Folds stay at >= 32-bit granularity
    // until the end, so codeword lanes never mix.
    const uint64_t fold =
        fold256(_mm256_xor_si256(chunk0, chunk1)) ^ tail;
    result.s0 = static_cast<uint32_t>(fold) ^
                static_cast<uint32_t>(fold >> 32);

    // S1: bit-sliced constant multiply. For each input bit plane b,
    // bytes with bit b set select plane_b (via compare-to-mask), and
    // the selections XOR-accumulate.
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    uint64_t acc_tail = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
        const __m256i bit_mask = _mm256_set1_epi8(
            static_cast<char>(1u << bit));
        // Rows are 72 bytes, so only row 0 is 32-byte aligned.
        const __m256i plane0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kPlanes.bytes[bit]));
        const __m256i plane1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kPlanes.bytes[bit] + 32));

        const __m256i select0 = _mm256_cmpeq_epi8(
            _mm256_and_si256(chunk0, bit_mask), bit_mask);
        const __m256i select1 = _mm256_cmpeq_epi8(
            _mm256_and_si256(chunk1, bit_mask), bit_mask);
        acc0 = _mm256_xor_si256(acc0,
                                _mm256_and_si256(select0, plane0));
        acc1 = _mm256_xor_si256(acc1,
                                _mm256_and_si256(select1, plane1));

        const uint64_t select_tail =
            ((tail >> bit) & 0x0101010101010101ull) * 0xffull;
        acc_tail ^= select_tail & load64(kPlanes.bytes[bit] + 64);
    }
    const uint64_t s1_fold =
        fold256(_mm256_xor_si256(acc0, acc1)) ^ acc_tail;
    result.s1 = static_cast<uint32_t>(s1_fold) ^
                static_cast<uint32_t>(s1_fold >> 32);
    return result;
}

} // namespace relaxfault

#else // !RF_HAVE_AVX2 x86

namespace relaxfault {

PackedLineSyndromes
Gf256Batched::lineSyndromesAvx2(const uint8_t *)
{
    panic("Gf256Batched: AVX2 kernel not compiled into this build");
}

} // namespace relaxfault

#endif
