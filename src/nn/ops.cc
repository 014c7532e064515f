#include "nn/ops.hh"

#include "common/logging.hh"

namespace fpsa
{

namespace
{

std::int64_t
numelOf(const Shape &s)
{
    return shapeNumel(s);
}

/** Spatial output size for a windowed op. */
std::int64_t
outDim(std::int64_t in, int kernel, int stride, int pad)
{
    const std::int64_t out =
        (in + 2 * std::int64_t{pad} - kernel) / stride + 1;
    fpsa_assert(out >= 1, "windowed op output collapses to %lld",
                static_cast<long long>(out));
    return out;
}

} // namespace

Shape
inferShape(OpKind kind, const OpAttrs &attrs,
           const std::vector<Shape> &inputs)
{
    switch (kind) {
      case OpKind::Input:
        panic("Input nodes carry their own shape");
      case OpKind::Conv2d: {
        fpsa_assert(inputs.size() == 1 && inputs[0].size() == 3,
                    "conv2d needs one CHW input");
        const Shape &in = inputs[0];
        fpsa_assert(in[0] % attrs.groups == 0 &&
                        attrs.outChannels % attrs.groups == 0,
                    "conv2d groups must divide channels");
        return {attrs.outChannels,
                outDim(in[1], attrs.kernel, attrs.stride, attrs.pad),
                outDim(in[2], attrs.kernel, attrs.stride, attrs.pad)};
      }
      case OpKind::FullyConnected: {
        fpsa_assert(inputs.size() == 1, "fc needs one input");
        return {attrs.units};
      }
      case OpKind::MaxPool:
      case OpKind::AvgPool: {
        fpsa_assert(inputs.size() == 1 && inputs[0].size() == 3,
                    "pool needs one CHW input");
        const Shape &in = inputs[0];
        return {in[0], outDim(in[1], attrs.kernel, attrs.stride, attrs.pad),
                outDim(in[2], attrs.kernel, attrs.stride, attrs.pad)};
      }
      case OpKind::GlobalAvgPool: {
        fpsa_assert(inputs.size() == 1 && inputs[0].size() == 3,
                    "global pool needs one CHW input");
        return {inputs[0][0]};
      }
      case OpKind::Relu:
      case OpKind::BatchNorm: {
        fpsa_assert(inputs.size() == 1, "unary op needs one input");
        return inputs[0];
      }
      case OpKind::Add: {
        fpsa_assert(inputs.size() >= 2, "add needs two inputs");
        for (std::size_t i = 1; i < inputs.size(); ++i)
            fpsa_assert(inputs[i] == inputs[0],
                        "add inputs must share a shape");
        return inputs[0];
      }
      case OpKind::Concat: {
        fpsa_assert(!inputs.empty(), "concat needs inputs");
        Shape out = inputs[0];
        fpsa_assert(out.size() == 3, "concat expects CHW inputs");
        for (std::size_t i = 1; i < inputs.size(); ++i) {
            fpsa_assert(inputs[i].size() == 3 && inputs[i][1] == out[1] &&
                            inputs[i][2] == out[2],
                        "concat spatial dims must match");
            out[0] += inputs[i][0];
        }
        return out;
      }
      case OpKind::Flatten: {
        fpsa_assert(inputs.size() == 1, "flatten needs one input");
        return {numelOf(inputs[0])};
      }
    }
    panic("unhandled op kind");
}

std::int64_t
weightCountOf(OpKind kind, const OpAttrs &attrs,
              const std::vector<Shape> &inputs, const Shape &out)
{
    switch (kind) {
      case OpKind::Conv2d: {
        const std::int64_t cin_per_group = inputs[0][0] / attrs.groups;
        return cin_per_group * attrs.kernel * attrs.kernel *
               attrs.outChannels;
      }
      case OpKind::FullyConnected:
        return numelOf(inputs[0]) * attrs.units;
      default:
        (void)out;
        return 0;
    }
}

std::int64_t
opCountOf(OpKind kind, const OpAttrs &attrs,
          const std::vector<Shape> &inputs, const Shape &out)
{
    switch (kind) {
      case OpKind::Conv2d: {
        const std::int64_t macs =
            weightCountOf(kind, attrs, inputs, out) * out[1] * out[2];
        return 2 * macs;
      }
      case OpKind::FullyConnected:
        return 2 * weightCountOf(kind, attrs, inputs, out);
      default:
        return 0;
    }
}

std::int64_t
reuseDegreeOf(OpKind kind, const Shape &out)
{
    if (kind == OpKind::Conv2d)
        return out[1] * out[2];
    return 1;
}

} // namespace fpsa
