#include "tensor/kernels.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "telemetry/catalog.hh"
#include "telemetry/metrics.hh"
#include "tensor/kernels_detail.hh"
#include "util/logging.hh"

namespace darkside {
namespace kernels {

namespace {

/**
 * Kernel-layer telemetry (docs/METRICS.md "dnn.kernel.*"). Dispatch
 * and work counts depend only on the scoring load's shapes (windows
 * fall on fixed batchFrames boundaries), so they are deterministic —
 * thread-count-invariant — for a fixed backend. dense_blocks counts
 * the 4x8 register-tile blocks a dense (or int8) call covers and
 * spmv_rows the CSR matrix rows walked; both are computed from the
 * operand shapes in the dispatcher, so the numbers do not change when
 * a different backend executes the same call.
 */
struct KernelMetrics
{
    telemetry::Counter dispatchScalar;
    telemetry::Counter dispatchAvx2;
    telemetry::Counter denseBlocks;
    telemetry::Counter spmvRows;

    static const KernelMetrics &
    get()
    {
        static const KernelMetrics m = [] {
            auto &reg = telemetry::MetricRegistry::global();
            KernelMetrics km;
            km.dispatchScalar = reg.counter(
                telemetry::metric("dnn.kernel.dispatch.scalar"));
            km.dispatchAvx2 =
                reg.counter(telemetry::metric("dnn.kernel.dispatch.avx2"));
            km.denseBlocks =
                reg.counter(telemetry::metric("dnn.kernel.dense_blocks"));
            km.spmvRows =
                reg.counter(telemetry::metric("dnn.kernel.spmv_rows"));
            return km;
        }();
        return m;
    }
};

void
countDispatch(KernelBackend backend)
{
    const KernelMetrics &m = KernelMetrics::get();
    if (backend == KernelBackend::Avx2)
        m.dispatchAvx2.add(1);
    else
        m.dispatchScalar.add(1);
}

KernelBackend
resolveBackend()
{
    if (const char *env = std::getenv("DARKSIDE_KERNEL")) {
        if (std::strcmp(env, "scalar") == 0)
            return KernelBackend::Scalar;
        if (std::strcmp(env, "avx2") == 0) {
            if (!avx2Available()) {
                fatal("DARKSIDE_KERNEL=avx2: the AVX2 kernels are not "
                      "available (%s)",
#ifdef DARKSIDE_HAVE_AVX2
                      "this CPU does not support AVX2"
#else
                      "not compiled into this build"
#endif
                );
            }
            return KernelBackend::Avx2;
        }
        if (*env != '\0')
            fatal("DARKSIDE_KERNEL: unknown backend '%s' "
                  "(expected scalar or avx2)", env);
    }
    return avx2Available() ? KernelBackend::Avx2
                           : KernelBackend::Scalar;
}

/**
 * Pack frames [0, frames) of the row-major batch into the transposed
 * (cols x frames) panel so one column's values for 8 consecutive
 * frames are contiguous.
 */
void
packTransposed(const Matrix &x, KernelScratch &scratch)
{
    const std::size_t frames = x.rows();
    const std::size_t cols = x.cols();
    scratch.xt.resize(frames * cols);
    float *xt = scratch.xt.data();
    for (std::size_t f = 0; f < frames; ++f) {
        const float *row = x.rowPtr(f);
        for (std::size_t c = 0; c < cols; ++c)
            xt[c * frames + f] = row[c];
    }
}

/**
 * Scalar dense tail for frames [f0, f1): exactly the gemv accumulation
 * order, mirroring gemmBatch's remainder loop.
 */
void
denseRowsScalar(const Matrix &x, const Matrix &w, const Vector &b,
                Matrix &y, std::size_t f0, std::size_t f1)
{
    const std::size_t in = w.cols();
    const std::size_t out = w.rows();
    for (std::size_t f = f0; f < f1; ++f) {
        const float *xf = x.rowPtr(f);
        float *yf = y.rowPtr(f);
        for (std::size_t r = 0; r < out; ++r) {
            const float *wr = w.rowPtr(r);
            float acc = 0.0f;
            for (std::size_t c = 0; c < in; ++c)
                acc += wr[c] * xf[c];
            yf[r] = acc + b[r];
        }
    }
}

/** Scalar CSR tail for frames [f0, f1), in SparseLayer::forward order. */
void
sparseRowsScalar(const Matrix &x, const CsrView &w, Matrix &y,
                 std::size_t f0, std::size_t f1)
{
    for (std::size_t f = f0; f < f1; ++f) {
        const float *xf = x.rowPtr(f);
        float *yf = y.rowPtr(f);
        for (std::size_t r = 0; r < w.rows; ++r) {
            float acc = 0.0f;
            for (std::size_t i = w.rowPtr[r]; i < w.rowPtr[r + 1]; ++i)
                acc += w.weights[i] * xf[w.indices[i]];
            yf[r] = acc + w.bias[r];
        }
    }
}

/**
 * Scalar CSR batch kernel: the stream of each output neuron is walked
 * once per four-frame group (amortising index/weight traffic), with
 * per-(frame, neuron) accumulation in entry order — the same rounding
 * sequence as the per-frame walk.
 */
void
sparseForwardScalar(const Matrix &x, const CsrView &w, Matrix &y)
{
    const std::size_t frames = x.rows();
    std::size_t f = 0;
    for (; f + 4 <= frames; f += 4) {
        const float *x0 = x.rowPtr(f);
        const float *x1 = x.rowPtr(f + 1);
        const float *x2 = x.rowPtr(f + 2);
        const float *x3 = x.rowPtr(f + 3);
        for (std::size_t r = 0; r < w.rows; ++r) {
            float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
            for (std::size_t i = w.rowPtr[r]; i < w.rowPtr[r + 1]; ++i) {
                const float wv = w.weights[i];
                const std::uint32_t c = w.indices[i];
                a0 += wv * x0[c];
                a1 += wv * x1[c];
                a2 += wv * x2[c];
                a3 += wv * x3[c];
            }
            const float bias = w.bias[r];
            y.rowPtr(f)[r] = a0 + bias;
            y.rowPtr(f + 1)[r] = a1 + bias;
            y.rowPtr(f + 2)[r] = a2 + bias;
            y.rowPtr(f + 3)[r] = a3 + bias;
        }
    }
    sparseRowsScalar(x, w, y, f, frames);
}

/**
 * Quantize the batch row-per-frame: frameScale[f] = max|x[f]| / 127,
 * codes = round(x / scale) clamped to [-127, 127]. Shared by both
 * int8 backends so the quantization decision is identical everywhere.
 */
void
packInt8(const Matrix &x, KernelScratch &scratch)
{
    const std::size_t frames = x.rows();
    const std::size_t cols = x.cols();
    scratch.xq.resize(frames * cols);
    scratch.frameScale.resize(frames);
    for (std::size_t f = 0; f < frames; ++f) {
        const float *row = x.rowPtr(f);
        std::int8_t *codes = scratch.xq.data() + f * cols;
        float peak = 0.0f;
        for (std::size_t c = 0; c < cols; ++c)
            peak = std::max(peak, std::fabs(row[c]));
        if (peak == 0.0f) {
            scratch.frameScale[f] = 0.0f;
            std::memset(codes, 0, cols);
            continue;
        }
        const float scale = peak / 127.0f;
        scratch.frameScale[f] = scale;
        for (std::size_t c = 0; c < cols; ++c) {
            float code = std::round(row[c] / scale);
            code = std::min(127.0f, std::max(-127.0f, code));
            codes[c] = static_cast<std::int8_t>(code);
        }
    }
}

/** Exact int32 dot of two int8 rows; the int8 reference arm. */
std::int32_t
dotInt8Scalar(const std::int8_t *a, const std::int8_t *b,
              std::size_t n)
{
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < n; ++c) {
        acc += static_cast<std::int32_t>(a[c]) *
            static_cast<std::int32_t>(b[c]);
    }
    return acc;
}

void
int8ForwardScalar(const KernelScratch &scratch, std::size_t frames,
                  const Int8Matrix &w, const Vector &b, Matrix &y)
{
    const std::size_t cols = w.cols;
    for (std::size_t f = 0; f < frames; ++f) {
        const std::int8_t *xf = scratch.xq.data() + f * cols;
        // Dequant multiplier: one float product per frame, applied
        // identically by the AVX2 arm.
        const float m = w.scale * scratch.frameScale[f];
        float *yf = y.rowPtr(f);
        for (std::size_t r = 0; r < w.rows; ++r) {
            const std::int32_t acc = dotInt8Scalar(
                xf, w.codes.data() + r * cols, cols);
            yf[r] = static_cast<float>(acc) * m + b[r];
        }
    }
}

} // namespace

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
      case KernelBackend::Scalar: return "scalar";
      case KernelBackend::Avx2: return "avx2";
    }
    return "unknown";
}

bool
avx2Available()
{
#ifdef DARKSIDE_HAVE_AVX2
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported;
#else
    return false;
#endif
}

KernelBackend
activeKernelBackend()
{
    static const KernelBackend backend = resolveBackend();
    return backend;
}

Int8Matrix
Int8Matrix::quantize(const Matrix &w)
{
    Int8Matrix q;
    q.rows = w.rows();
    q.cols = w.cols();
    q.codes.resize(w.size());

    float peak = 0.0f;
    const float *data = w.data();
    for (std::size_t i = 0; i < w.size(); ++i)
        peak = std::max(peak, std::fabs(data[i]));
    if (peak == 0.0f)
        return q; // scale 0, all-zero codes
    // Same formula and rounding as WeightQuantizer's 8-bit arm, so the
    // codes the quantizer attaches to a layer are reproduced exactly.
    q.scale = peak / 127.0f;
    for (std::size_t i = 0; i < w.size(); ++i) {
        float code = std::round(data[i] / q.scale);
        code = std::min(127.0f, std::max(-127.0f, code));
        q.codes[i] = static_cast<std::int8_t>(code);
    }
    return q;
}

Status
denseForward(const Matrix &x, const Matrix &w, const Vector &b,
             Matrix &y, KernelScratch &scratch, KernelBackend backend)
{
    if (x.cols() != w.cols()) {
        return Status::error(
            "denseForward: input width " + std::to_string(x.cols()) +
            " != weight columns " + std::to_string(w.cols()));
    }
    if (b.size() != w.rows()) {
        return Status::error(
            "denseForward: bias size " + std::to_string(b.size()) +
            " != weight rows " + std::to_string(w.rows()));
    }
    const std::size_t frames = x.rows();
    const std::size_t out = w.rows();
    countDispatch(backend);
    KernelMetrics::get().denseBlocks.add(
        ((out + 3) / 4) * ((frames + 7) / 8));

    if (backend == KernelBackend::Scalar) {
        // The scalar batch kernel in tensor/matrix is the oracle.
        return gemmBatch(x, w, b, y);
    }

#ifdef DARKSIDE_HAVE_AVX2
    y.resize(frames, out);
    const std::size_t groups8 = frames / 8;
    if (groups8 > 0) {
        packTransposed(x, scratch);
        detail::denseForwardAvx2(scratch.xt.data(), frames, groups8, w,
                                 b.data(), y);
    }
    denseRowsScalar(x, w, b, y, groups8 * 8, frames);
    return Status::ok();
#else
    panic("denseForward: AVX2 backend selected in a scalar-only build");
#endif
}

Status
sparseForward(const Matrix &x, const CsrView &w, Matrix &y,
              KernelScratch &scratch, KernelBackend backend)
{
    if (!w.rowPtr || !w.bias) {
        return Status::error("sparseForward: incomplete CSR view");
    }
    if (x.cols() != w.cols) {
        return Status::error(
            "sparseForward: input width " + std::to_string(x.cols()) +
            " != sparse columns " + std::to_string(w.cols));
    }
    const std::size_t frames = x.rows();
    countDispatch(backend);
    KernelMetrics::get().spmvRows.add(w.rows);

    y.resize(frames, w.rows);
    if (backend == KernelBackend::Scalar) {
        sparseForwardScalar(x, w, y);
        return Status::ok();
    }

#ifdef DARKSIDE_HAVE_AVX2
    const std::size_t groups8 = frames / 8;
    if (groups8 > 0) {
        packTransposed(x, scratch);
        detail::sparseForwardAvx2(scratch.xt.data(), frames, groups8, w,
                                  y);
    }
    sparseRowsScalar(x, w, y, groups8 * 8, frames);
    return Status::ok();
#else
    panic("sparseForward: AVX2 backend selected in a scalar-only build");
#endif
}

Status
int8Forward(const Matrix &x, const Int8Matrix &w, const Vector &b,
            Matrix &y, KernelScratch &scratch, KernelBackend backend)
{
    if (x.cols() != w.cols) {
        return Status::error(
            "int8Forward: input width " + std::to_string(x.cols()) +
            " != weight columns " + std::to_string(w.cols));
    }
    if (b.size() != w.rows) {
        return Status::error(
            "int8Forward: bias size " + std::to_string(b.size()) +
            " != weight rows " + std::to_string(w.rows));
    }
    if (w.codes.size() != w.rows * w.cols) {
        return Status::error(
            "int8Forward: code array has " +
            std::to_string(w.codes.size()) + " entries, expected " +
            std::to_string(w.rows * w.cols));
    }
    const std::size_t frames = x.rows();
    countDispatch(backend);
    KernelMetrics::get().denseBlocks.add(((w.rows + 3) / 4) * frames);

    y.resize(frames, w.rows);
    packInt8(x, scratch);
    if (backend == KernelBackend::Scalar) {
        int8ForwardScalar(scratch, frames, w, b, y);
        return Status::ok();
    }

#ifdef DARKSIDE_HAVE_AVX2
    detail::int8ForwardAvx2(scratch.xq.data(), scratch.frameScale.data(),
                            frames, w, b.data(), y);
    return Status::ok();
#else
    panic("int8Forward: AVX2 backend selected in a scalar-only build");
#endif
}

} // namespace kernels
} // namespace darkside
