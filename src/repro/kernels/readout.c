/*
 * Compiled hot-path kernels: the time-domain read-out chain and the
 * code-to-operand gather (im2col + DTC conversion + code row-sums +
 * per-row-tile delay sums).
 *
 * Bit-for-bit contract: every routine here must reproduce the numpy
 * reference in `repro.kernels.numpy_impl` exactly, element by element, in
 * the same IEEE-754 rounding.  That is only true when the compiler is
 * forbidden from contracting multiply+add into FMA (numpy rounds each op
 * separately), so this file MUST be compiled with `-ffp-contract=off`.
 * The ctypes loader in `c_impl.py` passes that flag; the optional
 * setuptools build in setup.py does too.
 *
 * Layout contract (checked by the Python guards before dispatch):
 *   charges     (T, S, G, P, C)  any element strides, overwritten in place
 *   delay_sums  (T, G, P)        any element strides, same dtype as charges
 *   shifts      (S,)             float64 contiguous, optional
 *   rec_out     (G, P, C)        float64, any element strides
 * All strides are in ELEMENTS, not bytes.
 *
 * The fused chain per element (matching TimeDomainChainSpec.read_out):
 *   q  = charge * charge_scale                 (phase-I charge, x V_DD)
 *   v  = q - offset_coeff * delay_sum          (reference-column subtract)
 *   v  = max(v, 0)                             (clip negative net charge)
 *   v /= capacitance                           (charge -> voltage)
 *   v  = v_threshold - v                       (phase-II headroom)
 *   v  = max(v, 0)
 *   v *= phase2_scale                          (voltage -> crossing time)
 *   v  = full_scale - v                        (time -> count direction)
 *   v /= lsb                                   (counts)
 *   v  = min(v, saturation)                    (optional ADC clamp)
 * then the optional slice recombination accumulates
 *   rec_out[g,p,c] += shifts[s] * v            in t-major, s-inner order —
 * the exact accumulation order numpy's einsum "s,tsgpc->gpc" uses, which
 * the float64 bit-identity tests pin down.  Without a charge scale the
 * caller passes 1.0, and q = charge * 1 is exact.
 *
 * Pairwise-order contract of the delay sums: the gather's per-row-tile
 * delay sums must equal numpy's `d.sum(axis=2)` over a contiguous row span
 * bit for bit, so they reproduce numpy's pairwise summation exactly —
 * spans below 8 elements add sequentially from -0.0; spans of 8..128 use
 * 8 accumulators seeded with the first 8 elements, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then add the remainder; longer
 * spans split at n/2 rounded down to a multiple of 8 and recurse.  The
 * result is added to the reduction's +0.0 identity.  Every step
 * accumulates in REAL (float32 sums stay float32, as numpy's do).
 *
 * The loops touch disjoint data per (t, s, g, p) row, carry no global
 * state, and are called through ctypes (which releases the GIL), so they
 * are safe to run concurrently from several threads.
 */

#include <stddef.h>
#include <stdint.h>

#ifdef _MSC_VER
#define API __declspec(dllexport)
#else
#define API __attribute__((visibility("default")))
#endif

/* Bumped whenever a signature changes; the loader refuses mismatches so a
 * stale cached .so can never be called with the wrong ABI. */
API int64_t repro_kernels_abi_version(void) { return 4; }

#define DEFINE_READOUT_FUSED(NAME, REAL)                                       \
API void NAME(                                                                 \
    REAL *charges, const REAL *delay_sums,                                     \
    int64_t n_tiles, int64_t n_slices, int64_t n_groups,                       \
    int64_t n_pos, int64_t n_cols,                                             \
    int64_t ch_st, int64_t ch_ss, int64_t ch_sg, int64_t ch_sp, int64_t ch_sc, \
    int64_t ds_st, int64_t ds_sg, int64_t ds_sp,                               \
    double charge_scale_d, double offset_coeff_d,                              \
    double capacitance_d, double v_threshold_d,                                \
    double phase2_scale_d, double full_scale_d, double lsb_d,                  \
    double saturation_d, int32_t has_saturation,                               \
    const double *shifts, double *rec_out,                                     \
    int64_t rec_sg, int64_t rec_sp, int64_t rec_sc)                            \
{                                                                              \
    /* numpy binds python-float scalars to the array dtype (NEP 50), so    */  \
    /* every chain constant is narrowed exactly once, up front.            */  \
    REAL charge_scale = (REAL)charge_scale_d;                                  \
    REAL offset_coeff = (REAL)offset_coeff_d;                                  \
    REAL capacitance = (REAL)capacitance_d;                                    \
    REAL v_threshold = (REAL)v_threshold_d;                                    \
    REAL phase2_scale = (REAL)phase2_scale_d;                                  \
    REAL full_scale = (REAL)full_scale_d;                                      \
    REAL lsb = (REAL)lsb_d;                                                    \
    REAL saturation = (REAL)saturation_d;                                      \
    int64_t t, s, g, p, c;                                                     \
    if (shifts != NULL)                                                        \
        for (g = 0; g < n_groups; ++g)                                         \
            for (p = 0; p < n_pos; ++p) {                                      \
                double *orow = rec_out + g * rec_sg + p * rec_sp;              \
                for (c = 0; c < n_cols; ++c)                                   \
                    orow[c * rec_sc] = 0.0;                                    \
            }                                                                  \
    for (t = 0; t < n_tiles; ++t)                                              \
        for (s = 0; s < n_slices; ++s) {                                       \
            double weight = (shifts != NULL) ? shifts[s] : 0.0;                \
            for (g = 0; g < n_groups; ++g)                                     \
                for (p = 0; p < n_pos; ++p) {                                  \
                    REAL offset = offset_coeff *                               \
                        delay_sums[t * ds_st + g * ds_sg + p * ds_sp];         \
                    REAL *row = charges +                                      \
                        t * ch_st + s * ch_ss + g * ch_sg + p * ch_sp;         \
                    double *orow = (shifts != NULL)                            \
                        ? rec_out + g * rec_sg + p * rec_sp : NULL;            \
                    for (c = 0; c < n_cols; ++c) {                             \
                        REAL q = row[c * ch_sc] * charge_scale;                \
                        REAL v = q - offset;                                   \
                        if (v < (REAL)0.0) v = (REAL)0.0;                      \
                        v /= capacitance;                                      \
                        v = v_threshold - v;                                   \
                        if (v < (REAL)0.0) v = (REAL)0.0;                      \
                        v *= phase2_scale;                                     \
                        v = full_scale - v;                                    \
                        v /= lsb;                                              \
                        if (has_saturation && v > saturation) v = saturation;  \
                        row[c * ch_sc] = v;                                    \
                        if (orow != NULL)                                      \
                            orow[c * rec_sc] += weight * (double)v;            \
                    }                                                          \
                }                                                              \
        }                                                                      \
}

DEFINE_READOUT_FUSED(readout_fused_f64, double)
DEFINE_READOUT_FUSED(readout_fused_f32, float)

/* numpy's pairwise summation of n contiguous REALs (see the header's
 * pairwise-order contract): the exact order `d.sum(axis=2)` adds in. */
#define DEFINE_PAIRWISE_SUM(NAME, REAL)                                        \
static REAL NAME(const REAL *a, int64_t n)                                     \
{                                                                              \
    int64_t i = 0, k, half = n / 2 - (n / 2) % 8;                              \
    REAL res = (REAL)-0.0, r[8];                                               \
    if (n > 128)                                                               \
        return NAME(a, half) + NAME(a + half, n - half);                       \
    if (n >= 8) {                                                              \
        for (k = 0; k < 8; ++k)                                                \
            r[k] = a[k];                                                       \
        for (i = 8; i < n - (n % 8); i += 8)                                   \
            for (k = 0; k < 8; ++k)                                            \
                r[k] += a[i + k];                                              \
        res = ((r[0] + r[1]) + (r[2] + r[3])) +                                \
              ((r[4] + r[5]) + (r[6] + r[7]));                                 \
    }                                                                          \
    for (; i < n; ++i)                                                         \
        res += a[i];                                                           \
    return res;                                                                \
}

DEFINE_PAIRWISE_SUM(pairwise_sum_f64, double)
DEFINE_PAIRWISE_SUM(pairwise_sum_f32, float)

/* The only-once input read (O2IR): quantised codes -> crossbar operand.
 *
 * codes (N, CH, H, W) int64 at any element strides (the previous layer's
 * output arrives channels-last) is read once; every window element is
 * converted once (DTC pulse = code * scale, in REAL) and written straight
 * into the position-major operand
 *   operand (N*out_h*out_w, CH*K*K)  C-contiguous, rows (c, ki, kj)-major
 * with zero-padded borders, while the exact integer code sum of each
 * weight-sharing group's rows accumulates into
 *   sums    (groups, N*out_h*out_w)  C-contiguous int64.
 * With tile_rows > 0, each finished operand row — still in L1 — is also
 * reduced per group and per tile_rows-high row tile (the last tile of a
 * group may be partial) into
 *   delay_sums (ceil(CH/groups*K*K / tile_rows), groups, N*out_h*out_w)
 * C-contiguous REAL, in numpy's pairwise order; with tile_rows == 0 the
 * delay_sums pointer is never touched.
 * Byte-identical to the numpy reference (im2col, astype, *= scale, int64
 * row sum, per-tile `sum(axis=2)`): the cast and the single multiply round
 * exactly as numpy's do.  Callers guarantee ch % groups == 0. */
#define DEFINE_IM2COL_GATHER(NAME, REAL, PAIRWISE)                             \
API void NAME(                                                                 \
    const int64_t *codes, int64_t n, int64_t ch, int64_t h, int64_t w,         \
    int64_t st_n, int64_t st_c, int64_t st_h, int64_t st_w,                    \
    int64_t kernel, int64_t stride, int64_t pad,                               \
    int64_t out_h, int64_t out_w, int64_t groups, double scale_d,              \
    int64_t tile_rows, REAL *operand, int64_t *sums, REAL *delay_sums)         \
{                                                                              \
    REAL scale = (REAL)scale_d;                                                \
    REAL zero = (REAL)0.0 * scale;                                             \
    int64_t kk = kernel * kernel;                                              \
    int64_t row_len = ch * kk;                                                 \
    int64_t group_ch = ch / groups;                                            \
    int64_t group_rows = group_ch * kk;                                        \
    int64_t positions = n * out_h * out_w;                                     \
    int64_t img, oh, ow, g, c, ki, kj, r0;                                     \
    for (img = 0; img < n; ++img)                                              \
        for (oh = 0; oh < out_h; ++oh)                                         \
            for (ow = 0; ow < out_w; ++ow) {                                   \
                int64_t p = (img * out_h + oh) * out_w + ow;                   \
                REAL *row = operand + p * row_len;                             \
                for (g = 0; g < groups; ++g) {                                 \
                    int64_t acc = 0;                                           \
                    for (c = g * group_ch; c < (g + 1) * group_ch; ++c) {      \
                        int64_t base = img * st_n + c * st_c;                  \
                        REAL *dst = row + c * kk;                              \
                        for (ki = 0; ki < kernel; ++ki) {                      \
                            int64_t ih = oh * stride - pad + ki;               \
                            for (kj = 0; kj < kernel; ++kj) {                  \
                                int64_t iw = ow * stride - pad + kj;           \
                                if (ih < 0 || ih >= h || iw < 0 || iw >= w) {  \
                                    dst[ki * kernel + kj] = zero;              \
                                } else {                                       \
                                    int64_t v =                                \
                                        codes[base + ih * st_h + iw * st_w];   \
                                    acc += v;                                  \
                                    dst[ki * kernel + kj] = (REAL)v * scale;   \
                                }                                              \
                            }                                                  \
                        }                                                      \
                    }                                                          \
                    sums[g * positions + p] = acc;                             \
                    if (tile_rows > 0)                                         \
                        for (r0 = 0; r0 < group_rows; r0 += tile_rows) {       \
                            int64_t height = group_rows - r0 < tile_rows       \
                                ? group_rows - r0 : tile_rows;                 \
                            delay_sums[((r0 / tile_rows) * groups + g)         \
                                       * positions + p] =                      \
                                (REAL)0.0 + PAIRWISE(                          \
                                    row + g * group_rows + r0, height);        \
                        }                                                      \
                }                                                              \
            }                                                                  \
}

DEFINE_IM2COL_GATHER(im2col_gather_f64, double, pairwise_sum_f64)
DEFINE_IM2COL_GATHER(im2col_gather_f32, float, pairwise_sum_f32)

#ifdef REPRO_BUILD_PYMODULE
/* Optional CPython module shell so `pip install .` can build this file as
 * `repro.kernels._native` via setuptools; the exported C symbols above are
 * still reached through ctypes.CDLL on the resulting extension file. */
#include <Python.h>
static struct PyModuleDef repro_kernels_moduledef = {
    PyModuleDef_HEAD_INIT, "_native",
    "Compiled read-out/gather kernels (accessed via ctypes, not Python).",
    -1, NULL,
};
PyMODINIT_FUNC PyInit__native(void) {
    return PyModule_Create(&repro_kernels_moduledef);
}
#endif
