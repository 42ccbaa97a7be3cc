#include "accel/systolic_array.hh"

namespace accesys::accel {

namespace {

#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && \
    __has_attribute(target_clones)
/// Per-function multiversioning: the build stays baseline-portable, but on
/// hosts with wider vector units the loader binds the AVX2/AVX-512 clone
/// of this kernel. Integer math is exact in every clone, so the dispatch
/// cannot affect results — only the MACs/s of the functional model.
#define ACCESYS_DOT_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define ACCESYS_DOT_CLONES
#endif

/// Exact int8 dot product of length `k`. Written as the canonical
/// widen-then-accumulate reduction, which GCC/Clang auto-vectorize into
/// the packed multiply-add idiom at -O3.
ACCESYS_DOT_CLONES
std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                    std::uint32_t k)
{
    std::int32_t sum = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
        sum += static_cast<std::int32_t>(a[i]) *
               static_cast<std::int32_t>(b[i]);
    }
    return sum;
}

} // namespace

void SystolicParams::validate() const
{
    require_cfg(rows >= 1 && cols >= 1, "systolic array must be non-empty");
    require_cfg(freq_ghz > 0, "systolic array frequency must be positive");
}

SystolicArray::SystolicArray(const SystolicParams& params) : params_(params)
{
    params_.validate();
}

Tick SystolicArray::tile_ticks(std::uint32_t k) const
{
    if (params_.compute_time_override_ns >= 0.0) {
        return ticks_from_ns(params_.compute_time_override_ns);
    }
    const Tick period = period_from_ghz(params_.freq_ghz);
    return tile_cycles(k) * period;
}

void SystolicArray::compute_strip(mem::BackingStore& store, Addr a_addr,
                                  Addr b_addr, Addr c_addr,
                                  std::uint32_t rows, std::uint32_t cols,
                                  std::uint32_t k,
                                  std::uint32_t c_stride_elems)
{
    std::vector<std::int8_t> a(static_cast<std::size_t>(rows) * k);
    std::vector<std::int8_t> b(static_cast<std::size_t>(cols) * k);
    store.read(a_addr, a.data(), a.size());
    store.read(b_addr, b.data(), b.size());

    // Row-blocked walk: the B panel (cols * k bytes, typically far larger
    // than L2) used to be streamed once per output row; processing four
    // rows per pass cuts that traffic 4x. Pure reordering of independent
    // exact integer dot products — results are bit-identical to the
    // row-at-a-time loop.
    std::vector<std::int32_t> c_rows(static_cast<std::size_t>(cols) * 4);
    std::uint32_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const std::int8_t* ar0 = &a[static_cast<std::size_t>(r) * k];
        const std::int8_t* ar1 = ar0 + k;
        const std::int8_t* ar2 = ar1 + k;
        const std::int8_t* ar3 = ar2 + k;
        for (std::uint32_t cc = 0; cc < cols; ++cc) {
            const std::int8_t* bc = &b[static_cast<std::size_t>(cc) * k];
            c_rows[cc] = dot_i8(ar0, bc, k);
            c_rows[cols + cc] = dot_i8(ar1, bc, k);
            c_rows[2 * std::size_t{cols} + cc] = dot_i8(ar2, bc, k);
            c_rows[3 * std::size_t{cols} + cc] = dot_i8(ar3, bc, k);
        }
        for (std::uint32_t rr = 0; rr < 4; ++rr) {
            store.write(c_addr + static_cast<Addr>(r + rr) *
                                     c_stride_elems * 4,
                        &c_rows[rr * std::size_t{cols}], cols * 4);
        }
    }
    for (; r < rows; ++r) {
        const std::int8_t* ar = &a[static_cast<std::size_t>(r) * k];
        for (std::uint32_t cc = 0; cc < cols; ++cc) {
            c_rows[cc] = dot_i8(ar, &b[static_cast<std::size_t>(cc) * k], k);
        }
        store.write(c_addr + static_cast<Addr>(r) * c_stride_elems * 4,
                    c_rows.data(), cols * 4);
    }
}

} // namespace accesys::accel
