#include "nn/ref_ops.hpp"

#include <algorithm>

#include "common/bitutil.hpp"

namespace decimate {

Tensor8 conv2d_s8(const Tensor8& input, const Tensor8& weights,
                  const Tensor32& bias, const ConvGeom& g, const Requant& rq) {
  Tensor8 out({g.oy(), g.ox(), g.k});
  conv2d_s8_into(input, weights, bias, g, rq, 0, g.oy(), 0, g.k, out);
  return out;
}

void conv2d_s8_into(const Tensor8& input, const Tensor8& weights,
                    const Tensor32& bias, const ConvGeom& g,
                    const Requant& rq, int oy_s, int oy_e, int k_s, int k_e,
                    Tensor8& out) {
  g.validate();
  DECIMATE_CHECK(input.shape() == (std::vector<int>{g.iy, g.ix, g.c}),
                 "conv input shape mismatch");
  DECIMATE_CHECK(weights.shape() == (std::vector<int>{g.k, g.fsz()}),
                 "conv weight shape mismatch");
  DECIMATE_CHECK(bias.shape() == (std::vector<int>{g.k}),
                 "conv bias shape mismatch");
  const int oy = g.oy(), ox = g.ox();
  DECIMATE_CHECK(out.shape() == (std::vector<int>{oy, ox, g.k}),
                 "conv output shape mismatch");
  DECIMATE_CHECK(0 <= oy_s && oy_s <= oy_e && oy_e <= oy && 0 <= k_s &&
                     k_s <= k_e && k_e <= g.k,
                 "conv range out of bounds");
  for (int y = oy_s; y < oy_e; ++y) {
    int8_t* out_y = out.data() + static_cast<int64_t>(y) * ox * g.k;
    for (int x = 0; x < ox; ++x) {
      int8_t* orow = out_y + static_cast<int64_t>(x) * g.k;
      for (int k = k_s; k < k_e; ++k) {
        int32_t acc = bias[k];
        const int8_t* wrow = weights.data() + static_cast<int64_t>(k) * g.fsz();
        int wi = 0;
        for (int fy = 0; fy < g.fy; ++fy) {
          const int iy = y * g.stride + fy - g.pad;
          for (int fx = 0; fx < g.fx; ++fx) {
            const int ix = x * g.stride + fx - g.pad;
            if (iy < 0 || iy >= g.iy || ix < 0 || ix >= g.ix) {
              wi += g.c;  // zero padding: skip this column
              continue;
            }
            const int8_t* in =
                input.data() +
                (static_cast<int64_t>(iy) * g.ix + ix) * g.c;
            for (int c = 0; c < g.c; ++c) {
              acc += static_cast<int32_t>(in[c]) *
                     static_cast<int32_t>(wrow[wi + c]);
            }
            wi += g.c;
          }
        }
        orow[k] = rq.apply(acc);
      }
    }
  }
}

Tensor8 fc_s8(const Tensor8& input, const Tensor8& weights,
              const Tensor32& bias, const Requant& rq) {
  DECIMATE_CHECK(input.rank() == 2 && weights.rank() == 2, "fc expects 2D");
  Tensor8 out({input.dim(0), weights.dim(0)});
  fc_s8_into(input, weights, bias, rq, 0, input.dim(0), 0, weights.dim(0),
             out);
  return out;
}

void fc_s8_into(const Tensor8& input, const Tensor8& weights,
                const Tensor32& bias, const Requant& rq, int t_s, int t_e,
                int k_s, int k_e, Tensor8& out) {
  DECIMATE_CHECK(input.rank() == 2 && weights.rank() == 2, "fc expects 2D");
  const int t = input.dim(0), c = input.dim(1), k = weights.dim(0);
  DECIMATE_CHECK(weights.dim(1) == c, "fc weight/input dim mismatch");
  DECIMATE_CHECK(bias.shape() == (std::vector<int>{k}), "fc bias mismatch");
  DECIMATE_CHECK(out.shape() == (std::vector<int>{t, k}),
                 "fc output shape mismatch");
  DECIMATE_CHECK(0 <= t_s && t_s <= t_e && t_e <= t && 0 <= k_s &&
                     k_s <= k_e && k_e <= k,
                 "fc range out of bounds");
  for (int ti = t_s; ti < t_e; ++ti) {
    const int8_t* in = input.data() + static_cast<int64_t>(ti) * c;
    for (int ki = k_s; ki < k_e; ++ki) {
      const int8_t* w = weights.data() + static_cast<int64_t>(ki) * c;
      int32_t acc = bias[ki];
      for (int ci = 0; ci < c; ++ci) {
        acc += static_cast<int32_t>(in[ci]) * static_cast<int32_t>(w[ci]);
      }
      out.at({ti, ki}) = rq.apply(acc);
    }
  }
}

Tensor8 relu_s8(const Tensor8& x) {
  Tensor8 out(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) out[i] = std::max<int8_t>(x[i], 0);
  return out;
}

Tensor8 add_s8(const Tensor8& a, const Requant& ra, const Tensor8& b,
               const Requant& rb) {
  DECIMATE_CHECK(a.shape() == b.shape(), "add shape mismatch");
  Tensor8 out(a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    const int32_t ta =
        static_cast<int32_t>(static_cast<uint32_t>(a[i]) *
                             static_cast<uint32_t>(ra.mult)) >> ra.shift;
    const int32_t tb =
        static_cast<int32_t>(static_cast<uint32_t>(b[i]) *
                             static_cast<uint32_t>(rb.mult)) >> rb.shift;
    out[i] = static_cast<int8_t>(clip_signed(ta + tb, 8));
  }
  return out;
}

Tensor8 maxpool2x2_s8(const Tensor8& x) {
  DECIMATE_CHECK(x.rank() == 3, "maxpool expects {H,W,C}");
  const int h = x.dim(0), w = x.dim(1), c = x.dim(2);
  DECIMATE_CHECK(h % 2 == 0 && w % 2 == 0, "maxpool needs even H/W");
  Tensor8 out({h / 2, w / 2, c});
  const int64_t row = static_cast<int64_t>(w) * c;
  for (int y = 0; y < h / 2; ++y) {
    const int8_t* r0 = x.data() + 2 * y * row;
    const int8_t* r1 = r0 + row;
    int8_t* orow = out.data() + static_cast<int64_t>(y) * (w / 2) * c;
    for (int xx = 0; xx < w / 2; ++xx) {
      const int8_t* p00 = r0 + static_cast<int64_t>(2 * xx) * c;
      const int8_t* p01 = p00 + c;
      const int8_t* p10 = r1 + static_cast<int64_t>(2 * xx) * c;
      const int8_t* p11 = p10 + c;
      int8_t* o = orow + static_cast<int64_t>(xx) * c;
      for (int ci = 0; ci < c; ++ci) {
        int8_t m = p00[ci];
        m = std::max(m, p01[ci]);
        m = std::max(m, p10[ci]);
        m = std::max(m, p11[ci]);
        o[ci] = m;
      }
    }
  }
  return out;
}

Tensor8 global_avgpool_s8(const Tensor8& x, const Requant& rq) {
  DECIMATE_CHECK(x.rank() == 3, "avgpool expects {H,W,C}");
  const int h = x.dim(0), w = x.dim(1), c = x.dim(2);
  Tensor8 out({c});
  for (int ci = 0; ci < c; ++ci) {
    int32_t acc = 0;
    for (int y = 0; y < h; ++y) {
      const int8_t* row = x.data() + static_cast<int64_t>(y) * w * c + ci;
      for (int xx = 0; xx < w; ++xx) acc += row[static_cast<int64_t>(xx) * c];
    }
    out[ci] = rq.apply(acc);
  }
  return out;
}

Tensor8 lut_s8(const Tensor8& x, std::span<const int8_t> lut) {
  DECIMATE_CHECK(lut.size() == 256, "lut must have 256 entries");
  Tensor8 out(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    out[i] = lut[static_cast<uint8_t>(x[i])];
  }
  return out;
}

Tensor8 softmax_s8(const Tensor8& x, std::span<const uint8_t> exp_lut) {
  DECIMATE_CHECK(x.rank() == 2, "softmax expects {T,L}");
  const int t = x.dim(0), l = x.dim(1);
  Tensor8 out({t, l});
  for (int ti = 0; ti < t; ++ti) {
    softmax_s8_row({x.data() + static_cast<int64_t>(ti) * l,
                    static_cast<size_t>(l)},
                   exp_lut,
                   {out.data() + static_cast<int64_t>(ti) * l,
                    static_cast<size_t>(l)});
  }
  return out;
}

Tensor8 layernorm_s8(const Tensor8& x, const Tensor8& gamma,
                     const Tensor8& beta) {
  DECIMATE_CHECK(x.rank() == 2, "layernorm expects {T,L}");
  const int t = x.dim(0), l = x.dim(1);
  DECIMATE_CHECK(gamma.numel() == l && beta.numel() == l,
                 "layernorm gamma/beta size mismatch");
  Tensor8 out({t, l});
  for (int ti = 0; ti < t; ++ti) {
    layernorm_s8_row({x.data() + static_cast<int64_t>(ti) * l,
                      static_cast<size_t>(l)},
                     gamma.flat(), beta.flat(),
                     {out.data() + static_cast<int64_t>(ti) * l,
                      static_cast<size_t>(l)});
  }
  return out;
}

}  // namespace decimate
