#include "runtime/compiled_model.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "nn/plan.hh"
#include "synth/synthesizer.hh"

namespace fpsa
{

namespace
{

constexpr const char *kFormat = "fpsa.compiled_model";

/**
 * Document versions this build reads.  v1 predates the resource-demand
 * section (multi-tenant admission); loading a v1 artifact derives the
 * demand from its allocation + netlist, so old artifacts stay servable.
 * v2 predates the execution section (executor/precision/kernel ISA);
 * v1/v2 artifacts load with the all-default ExecutionConfig.  v1-v3
 * store each weight tensor's `data` as an array of decimal numbers; v4
 * stores it as one base64 string of binary32 values (encodeWeights).
 * The reader picks the decoder by the JSON kind of `data`, so any
 * version may carry either.  Writes always emit the newest version.
 */
constexpr std::int64_t kVersion = 4;
constexpr std::int64_t kMinReadVersion = 1;

bool
opKindFromName(const std::string &name, OpKind &out)
{
    static const std::pair<const char *, OpKind> kTable[] = {
        {"input", OpKind::Input},
        {"conv2d", OpKind::Conv2d},
        {"fc", OpKind::FullyConnected},
        {"maxpool", OpKind::MaxPool},
        {"avgpool", OpKind::AvgPool},
        {"gavgpool", OpKind::GlobalAvgPool},
        {"relu", OpKind::Relu},
        {"add", OpKind::Add},
        {"concat", OpKind::Concat},
        {"batchnorm", OpKind::BatchNorm},
        {"flatten", OpKind::Flatten},
    };
    for (const auto &[n, k] : kTable) {
        if (name == n) {
            out = k;
            return true;
        }
    }
    return false;
}

bool
roleFromName(const std::string &name, CoreOpRole &out)
{
    static const std::pair<const char *, CoreOpRole> kTable[] = {
        {"weight", CoreOpRole::Weight},
        {"reduce", CoreOpRole::Reduce},
        {"pool", CoreOpRole::Pool},
        {"eltwise", CoreOpRole::Eltwise},
    };
    for (const auto &[n, r] : kTable) {
        if (name == n) {
            out = r;
            return true;
        }
    }
    return false;
}

bool
blockTypeFromName(const std::string &name, BlockType &out)
{
    if (name == "PE")
        out = BlockType::Pe;
    else if (name == "SMB")
        out = BlockType::Smb;
    else if (name == "CLB")
        out = BlockType::Clb;
    else
        return false;
    return true;
}

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/**
 * A weight tensor's `data`: padded RFC 4648 base64 of its elements as
 * little-endian IEEE-754 binary32, in element order.  The bytes come
 * from each element's bit pattern with shifts, so the text does not
 * depend on the host and reloads bit-identically.
 */
std::string
encodeWeights(const Tensor &weights)
{
    const float *values = weights.data();
    const std::size_t byte_count =
        4 * static_cast<std::size_t>(weights.numel());
    const auto byteAt = [&](std::size_t i) -> std::uint32_t {
        if (i >= byte_count)
            return 0;
        return (std::bit_cast<std::uint32_t>(values[i / 4]) >>
                (8 * (i % 4))) &
               0xFFu;
    };
    // Characters that would encode only bytes past the end stay '='.
    std::string out((byte_count + 2) / 3 * 4, '=');
    char *o = out.data();
    for (std::size_t i = 0; i < byte_count; i += 3, o += 4) {
        const std::uint32_t triple =
            byteAt(i) << 16 | byteAt(i + 1) << 8 | byteAt(i + 2);
        o[0] = kBase64Alphabet[triple >> 18];
        o[1] = kBase64Alphabet[(triple >> 12) & 63];
        if (i + 1 < byte_count)
            o[2] = kBase64Alphabet[(triple >> 6) & 63];
        if (i + 2 < byte_count)
            o[3] = kBase64Alphabet[triple & 63];
    }
    return out;
}

/** Base64 character -> its 6-bit value, or -1 outside the alphabet. */
constexpr std::array<std::int8_t, 256> kBase64Values = [] {
    std::array<std::int8_t, 256> table{};
    table.fill(-1);
    for (int i = 0; i < 64; ++i)
        table[static_cast<unsigned char>(kBase64Alphabet[i])] =
            static_cast<std::int8_t>(i);
    return table;
}();

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/**
 * Element count of `shape`, or -1 when a dim is below 1 or the count
 * overflows int64: the product shapeNumel takes unchecked, made safe for
 * the shapes of an untrusted document.
 */
std::int64_t
checkedNumel(const Shape &shape)
{
    std::int64_t n = 1;
    for (std::int64_t d : shape) {
        if (d < 1 || n > kInt64Max / d)
            return -1;
        n *= d;
    }
    return n;
}

/**
 * Decode an encodeWeights payload strictly into `out`: alphabet
 * characters only, `=` only as the final one or two, a length that is a
 * multiple of 4, zero padding bits, exactly `shape`'s element count and
 * finite values.  Returns what is wrong, or "" on success.
 */
std::string
decodeWeights(const std::string &text, const Shape &shape,
              std::vector<float> &out)
{
    if (text.size() % 4 != 0)
        return "base64 length " + std::to_string(text.size()) +
               " is not a multiple of 4";
    std::size_t pad = 0;
    while (pad < 2 && pad < text.size() &&
           text[text.size() - 1 - pad] == '=')
        ++pad;
    const std::size_t byte_count = text.size() / 4 * 3 - pad;
    if (byte_count % 4 != 0 ||
        checkedNumel(shape) != static_cast<std::int64_t>(byte_count / 4))
        return "base64 decodes to " + std::to_string(byte_count) +
               " bytes, not 4 per element of shape " + shapeToString(shape);

    const std::size_t data_chars = text.size() - pad;
    for (std::size_t i = 0; i < data_chars; ++i) {
        if (kBase64Values[static_cast<unsigned char>(text[i])] >= 0)
            continue;
        if (text[i] == '=')
            return "base64 '=' at character " + std::to_string(i) +
                   " before the end";
        return "base64 character " + std::to_string(i) +
               " is not in the alphabet";
    }

    // Padding reads as zero bits, so every byte past byte_count must
    // be zero: otherwise two texts would decode to the same weights and
    // re-serialize differently.
    std::vector<unsigned char> bytes(text.size() / 4 * 3);
    for (std::size_t i = 0, o = 0; i < text.size(); i += 4, o += 3) {
        std::uint32_t quad = 0;
        for (std::size_t k = i; k < i + 4; ++k) {
            const std::uint32_t sextet =
                k < data_chars
                    ? static_cast<std::uint32_t>(
                          kBase64Values[static_cast<unsigned char>(text[k])])
                    : 0;
            quad = quad << 6 | sextet;
        }
        bytes[o] = static_cast<unsigned char>(quad >> 16);
        bytes[o + 1] = static_cast<unsigned char>(quad >> 8);
        bytes[o + 2] = static_cast<unsigned char>(quad);
    }
    if (std::any_of(bytes.begin() + static_cast<std::ptrdiff_t>(byte_count),
                    bytes.end(), [](unsigned char b) { return b != 0; }))
        return "base64 padding bits are not zero";

    out.resize(byte_count / 4);
    for (std::size_t e = 0; e < out.size(); ++e) {
        const unsigned char *b = &bytes[4 * e];
        out[e] = std::bit_cast<float>(
            std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
            std::uint32_t{b[2]} << 16 | std::uint32_t{b[3]} << 24);
        if (!std::isfinite(out[e]))
            return "element " + std::to_string(e) + " is not finite";
    }
    return {};
}

void
emitShape(JsonWriter &j, const Shape &shape)
{
    j.beginArray();
    for (std::int64_t d : shape)
        j.value(d);
    j.endArray();
}

/**
 * Error-latching reader: accessors return neutral defaults on missing
 * or mistyped members and record the first failure, so deserialization
 * code reads a document linearly and checks `status()` once per
 * section.
 */
class Deser
{
  public:
    std::int64_t
    i64(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return 0;
        if (!v->isNumber()) {
            fail(std::string("member '") + key + "' is not a number");
            return 0;
        }
        return v->asInt();
    }

    double
    num(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return 0.0;
        // The writer emits null for non-finite values; read as 0.
        if (v->isNull())
            return 0.0;
        if (!v->isNumber()) {
            fail(std::string("member '") + key + "' is not a number");
            return 0.0;
        }
        return v->number();
    }

    bool
    flag(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return false;
        if (!v->isBool()) {
            fail(std::string("member '") + key + "' is not a bool");
            return false;
        }
        return v->boolean();
    }

    std::string
    str(const JsonValue &obj, const char *key)
    {
        const JsonValue *v = need(obj, key);
        if (!v)
            return {};
        if (!v->isString()) {
            fail(std::string("member '") + key + "' is not a string");
            return {};
        }
        return v->string();
    }

    const JsonValue &
    arr(const JsonValue &obj, const char *key)
    {
        static const JsonValue empty = JsonValue::makeArray({});
        const JsonValue *v = need(obj, key);
        if (!v)
            return empty;
        if (!v->isArray()) {
            fail(std::string("member '") + key + "' is not an array");
            return empty;
        }
        return *v;
    }

    const JsonValue &
    obj(const JsonValue &parent, const char *key)
    {
        static const JsonValue empty = JsonValue::makeObject({});
        const JsonValue *v = need(parent, key);
        if (!v)
            return empty;
        if (!v->isObject()) {
            fail(std::string("member '") + key + "' is not an object");
            return empty;
        }
        return *v;
    }

    void
    fail(std::string why)
    {
        if (status_.ok()) {
            status_ = Status::error(StatusCode::InvalidArgument,
                                    "compiled model: " + std::move(why));
        }
    }

    const Status &status() const { return status_; }

  private:
    const JsonValue *
    need(const JsonValue &parent, const char *key)
    {
        const JsonValue *v = parent.find(key);
        if (!v)
            fail(std::string("missing member '") + key + "'");
        return v;
    }

    Status status_;
};

Shape
readShape(Deser &d, const JsonValue &obj, const char *key)
{
    Shape shape;
    for (const JsonValue &dim : d.arr(obj, key).array()) {
        if (!dim.isNumber()) {
            d.fail(std::string("shape member in '") + key +
                   "' is not a number");
            break;
        }
        shape.push_back(dim.asInt());
    }
    return shape;
}

// ------------------------------------------------------------- sections

void
emitOptions(JsonWriter &j, const CompileOptions &o)
{
    j.beginObject();
    j.field("duplicationDegree", o.duplicationDegree);
    j.field("runPlaceAndRoute", o.runPlaceAndRoute);
    j.key("synth").beginObject();
    j.field("crossbarRows", o.synth.crossbarRows);
    j.field("crossbarCols", o.synth.crossbarCols);
    j.field("ioBits", o.synth.ioBits);
    j.field("weightBits", o.synth.weightBits);
    j.field("maxWeightLevel",
            static_cast<std::int64_t>(o.synth.maxWeightLevel));
    j.endObject();
    j.key("allocation").beginObject();
    j.field("pesPerClb", o.allocation.pesPerClb);
    j.field("smbsPerEdge", o.allocation.smbsPerEdge);
    j.endObject();
    j.key("mapper").beginObject();
    j.field("busWidth", o.mapper.busWidth);
    j.field("controlWidth", o.mapper.controlWidth);
    j.field("pesPerClb", o.mapper.pesPerClb);
    j.endObject();
    j.key("perf").beginObject();
    j.field("ioBits", o.perf.ioBits);
    j.field("wireDelayPerBit", o.perf.wireDelayPerBit);
    j.endObject();
    j.endObject();
}

CompileOptions
readOptions(Deser &d, const JsonValue &v)
{
    // PnR knobs are deliberately not persisted: they shaped the saved
    // artifact but are irrelevant to serving it.  Loaded models keep
    // default PnrOptions.
    CompileOptions o;
    o.duplicationDegree = d.i64(v, "duplicationDegree");
    o.runPlaceAndRoute = d.flag(v, "runPlaceAndRoute");
    const JsonValue &synth = d.obj(v, "synth");
    o.synth.crossbarRows = static_cast<int>(d.i64(synth, "crossbarRows"));
    o.synth.crossbarCols = static_cast<int>(d.i64(synth, "crossbarCols"));
    o.synth.ioBits = static_cast<int>(d.i64(synth, "ioBits"));
    o.synth.weightBits = static_cast<int>(d.i64(synth, "weightBits"));
    o.synth.maxWeightLevel =
        static_cast<std::int32_t>(d.i64(synth, "maxWeightLevel"));
    const JsonValue &alloc = d.obj(v, "allocation");
    o.allocation.pesPerClb = static_cast<int>(d.i64(alloc, "pesPerClb"));
    o.allocation.smbsPerEdge =
        static_cast<int>(d.i64(alloc, "smbsPerEdge"));
    const JsonValue &mapper = d.obj(v, "mapper");
    o.mapper.busWidth = static_cast<int>(d.i64(mapper, "busWidth"));
    o.mapper.controlWidth =
        static_cast<int>(d.i64(mapper, "controlWidth"));
    o.mapper.pesPerClb = static_cast<int>(d.i64(mapper, "pesPerClb"));
    const JsonValue &perf = d.obj(v, "perf");
    o.perf.ioBits = static_cast<int>(d.i64(perf, "ioBits"));
    o.perf.wireDelayPerBit = d.num(perf, "wireDelayPerBit");
    return o;
}

void
emitGraph(JsonWriter &j, const Graph &graph)
{
    j.beginObject();
    j.key("nodes").beginArray();
    for (const GraphNode &n : graph.nodes()) {
        j.beginObject();
        j.field("kind", opKindName(n.kind));
        j.field("name", n.name);
        j.key("inputs").beginArray();
        for (NodeId in : n.inputs)
            j.value(static_cast<std::int64_t>(in));
        j.endArray();
        j.key("attrs").beginObject();
        j.field("kernel", n.attrs.kernel);
        j.field("stride", n.attrs.stride);
        j.field("pad", n.attrs.pad);
        j.field("outChannels", n.attrs.outChannels);
        j.field("groups", n.attrs.groups);
        j.field("units", n.attrs.units);
        j.endObject();
        j.key("outShape");
        emitShape(j, n.outShape);
        j.key("weights");
        if (n.weights.has_value()) {
            j.beginObject();
            j.key("shape");
            emitShape(j, n.weights->shape());
            j.field("data", encodeWeights(*n.weights));
            j.endObject();
        } else {
            j.null();
        }
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

/**
 * Why inferShape would reject this op, or "" when it accepts it.
 * inferShape asserts its preconditions, which suits graphs built in
 * process; a loaded document is untrusted, so readGraph checks the same
 * preconditions first and returns InvalidArgument instead of aborting.
 */
std::string
opGeometryError(OpKind kind, const OpAttrs &a,
                const std::vector<Shape> &in)
{
    const bool one_chw = in.size() == 1 && in[0].size() == 3;
    const auto window = [&]() -> std::string {
        if (a.kernel < 1 || a.stride < 1 || a.pad < 0)
            return "needs kernel >= 1, stride >= 1 and pad >= 0";
        // outDim adds 2 * pad to each input dim before anything else.
        const std::int64_t max_in = kInt64Max - 2 * std::int64_t{a.pad};
        if (in[0][1] > max_in || in[0][2] > max_in)
            return "has a padded input dim beyond int64";
        // outDim's (in + 2 * pad - kernel) / stride + 1 >= 1, rearranged
        // so that a huge corrupt dim cannot overflow.
        const std::int64_t min_in =
            a.kernel - 2 * std::int64_t{a.pad} - a.stride + 1;
        if (in[0][1] < min_in || in[0][2] < min_in)
            return "has a windowed output dim below 1";
        return {};
    };
    switch (kind) {
      case OpKind::Input:
        return "is not an op";
      case OpKind::Conv2d:
        if (!one_chw)
            return "needs one CHW input";
        if (a.outChannels < 1)
            return "needs outChannels >= 1";
        if (a.groups < 1 || in[0][0] % a.groups != 0 ||
            a.outChannels % a.groups != 0)
            return "needs groups >= 1 dividing both channel counts";
        return window();
      case OpKind::MaxPool:
      case OpKind::AvgPool:
        return one_chw ? window() : "needs one CHW input";
      case OpKind::GlobalAvgPool:
        return one_chw ? "" : "needs one CHW input";
      case OpKind::FullyConnected:
        if (in.size() != 1)
            return "needs one input";
        return a.units >= 1 ? "" : "needs units >= 1";
      case OpKind::Relu:
      case OpKind::BatchNorm:
      case OpKind::Flatten:
        return in.size() == 1 ? "" : "needs one input";
      case OpKind::Add:
        if (in.size() < 2)
            return "needs two or more inputs";
        for (const Shape &s : in) {
            if (s != in[0])
                return "has inputs of different shapes";
        }
        return {};
      case OpKind::Concat: {
        std::int64_t channels = 0;
        for (const Shape &s : in) {
            if (s.size() != 3 || s[1] != in[0][1] || s[2] != in[0][2])
                return "needs CHW inputs of one spatial size";
            if (s[0] > kInt64Max - channels)
                return "has a channel count beyond int64";
            channels += s[0];
        }
        return {};
      }
    }
    return "has an unhandled op kind";
}

/**
 * Rebuild a Graph through its public construction API, re-running
 * shape inference, then verify the inferred shapes match the saved
 * ones -- a strong end-to-end check that the document describes a
 * coherent model.
 */
StatusOr<Graph>
readGraph(const JsonValue &v)
{
    Deser d;
    const auto &nodes = d.arr(v, "nodes").array();
    if (!d.status().ok())
        return d.status();
    if (nodes.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: graph has no nodes");
    }

    Graph graph;
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const JsonValue &n = nodes[id];
        const std::string kind_name = d.str(n, "kind");
        const std::string name = d.str(n, "name");
        Shape out_shape = readShape(d, n, "outShape");
        if (!d.status().ok())
            return d.status();
        // Readers of this node (Flatten's shape inference, plan sizes)
        // multiply its dims unchecked, so the count must fit int64.
        if (checkedNumel(out_shape) < 0) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: node '" + name + "' outShape " +
                    shapeToString(out_shape) +
                    " has a dim below 1 or more elements than int64 holds");
        }

        OpKind kind;
        if (!opKindFromName(kind_name, kind)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown op kind '" +
                                     kind_name + "'");
        }

        if (kind == OpKind::Input) {
            if (out_shape.empty()) {
                return Status::error(StatusCode::InvalidArgument,
                                     "compiled model: input node has an "
                                     "empty shape");
            }
            graph.addInput(out_shape, name);
            continue;
        }

        OpAttrs attrs;
        const JsonValue &a = d.obj(n, "attrs");
        attrs.kernel = static_cast<int>(d.i64(a, "kernel"));
        attrs.stride = static_cast<int>(d.i64(a, "stride"));
        attrs.pad = static_cast<int>(d.i64(a, "pad"));
        attrs.outChannels = static_cast<int>(d.i64(a, "outChannels"));
        attrs.groups = static_cast<int>(d.i64(a, "groups"));
        attrs.units = static_cast<int>(d.i64(a, "units"));

        std::vector<NodeId> inputs;
        for (const JsonValue &in : d.arr(n, "inputs").array()) {
            const std::int64_t ref = in.asInt();
            if (!in.isNumber() || ref < 0 ||
                ref >= static_cast<std::int64_t>(id)) {
                return Status::error(
                    StatusCode::InvalidArgument,
                    "compiled model: node '" + name +
                        "' references an out-of-range input");
            }
            inputs.push_back(static_cast<NodeId>(ref));
        }
        if (inputs.empty()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: op node '" + name +
                                     "' has no inputs");
        }
        if (!d.status().ok())
            return d.status();

        std::vector<Shape> in_shapes;
        for (NodeId in : inputs)
            in_shapes.push_back(graph.node(in).outShape);
        const std::string why = opGeometryError(kind, attrs, in_shapes);
        if (!why.empty()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: node '" + name + "' " +
                                     why);
        }

        const NodeId added = graph.addOp(kind, inputs, attrs, name);
        if (graph.node(added).outShape != out_shape) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: node '" + name +
                    "' saved shape " + shapeToString(out_shape) +
                    " disagrees with inferred " +
                    shapeToString(graph.node(added).outShape));
        }
    }

    // Weights, second pass (node ids are now stable).
    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const JsonValue &w = nodes[id]["weights"];
        if (w.isNull())
            continue;
        const auto invalid = [&](const std::string &why) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: weight data of node " +
                                     std::to_string(id) + " ('" +
                                     graph.node(static_cast<NodeId>(id))
                                         .name +
                                     "') " + why);
        };
        Deser wd;
        Shape shape = readShape(wd, w, "shape");
        const JsonValue *data = w.find("data");
        if (!wd.status().ok())
            return wd.status();
        std::vector<float> values;
        if (data && data->isString()) {
            const std::string why =
                decodeWeights(data->string(), shape, values);
            if (!why.empty())
                return invalid("is corrupt: " + why);
        } else if (data && data->isArray()) {
            // The v1-v3 layout: one decimal number per element.
            const auto &elems = data->array();
            if (checkedNumel(shape) !=
                static_cast<std::int64_t>(elems.size()))
                return invalid("does not match its shape");
            values.reserve(elems.size());
            for (const JsonValue &x : elems) {
                const float value = static_cast<float>(x.number());
                if (!x.isNumber() || !std::isfinite(value))
                    return invalid(
                        "has a non-numeric or out-of-range weight element");
                values.push_back(value);
            }
        } else {
            return invalid("is neither a base64 string nor an array");
        }
        graph.node(static_cast<NodeId>(id)).weights =
            Tensor(std::move(shape), std::move(values));
    }
    return graph;
}

void
emitSynthesis(JsonWriter &j, const SynthesisSummary &s)
{
    j.beginObject();
    j.key("options").beginObject();
    j.field("crossbarRows", s.options.crossbarRows);
    j.field("crossbarCols", s.options.crossbarCols);
    j.field("ioBits", s.options.ioBits);
    j.field("weightBits", s.options.weightBits);
    j.field("maxWeightLevel",
            static_cast<std::int64_t>(s.options.maxWeightLevel));
    j.endObject();
    j.field("pipelineDepth", s.pipelineDepth);
    j.key("groups").beginArray();
    for (const SynthGroup &g : s.groups) {
        j.beginObject();
        j.field("name", g.name);
        j.field("sourceNode", static_cast<std::int64_t>(g.sourceNode));
        j.field("role", coreOpRoleName(g.role));
        j.field("tilesPerInstance", g.tilesPerInstance);
        j.field("instances", g.instances);
        j.field("macsPerInstance", g.macsPerInstance);
        j.field("utilization", g.utilization);
        j.field("stageDepth", g.stageDepth);
        j.key("preds").beginArray();
        for (int p : g.preds)
            j.value(p);
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<SynthesisSummary>
readSynthesis(const JsonValue &v)
{
    Deser d;
    SynthesisSummary s;
    const JsonValue &o = d.obj(v, "options");
    s.options.crossbarRows = static_cast<int>(d.i64(o, "crossbarRows"));
    s.options.crossbarCols = static_cast<int>(d.i64(o, "crossbarCols"));
    s.options.ioBits = static_cast<int>(d.i64(o, "ioBits"));
    s.options.weightBits = static_cast<int>(d.i64(o, "weightBits"));
    s.options.maxWeightLevel =
        static_cast<std::int32_t>(d.i64(o, "maxWeightLevel"));
    s.pipelineDepth = static_cast<int>(d.i64(v, "pipelineDepth"));
    for (const JsonValue &gv : d.arr(v, "groups").array()) {
        SynthGroup g;
        g.name = d.str(gv, "name");
        g.sourceNode = static_cast<NodeId>(d.i64(gv, "sourceNode"));
        const std::string role = d.str(gv, "role");
        if (!role.empty() && !roleFromName(role, g.role)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown core-op role '" +
                                     role + "'");
        }
        g.tilesPerInstance = d.i64(gv, "tilesPerInstance");
        g.instances = d.i64(gv, "instances");
        g.macsPerInstance = d.i64(gv, "macsPerInstance");
        g.utilization = d.num(gv, "utilization");
        g.stageDepth = static_cast<int>(d.i64(gv, "stageDepth"));
        for (const JsonValue &p : d.arr(gv, "preds").array()) {
            if (!p.isNumber()) {
                d.fail("non-numeric pred in group '" + g.name + "'");
                break;
            }
            g.preds.push_back(static_cast<int>(p.asInt()));
        }
        s.groups.push_back(std::move(g));
    }
    if (!d.status().ok())
        return d.status();
    if (s.groups.empty()) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: synthesis has no groups");
    }
    return s;
}

void
emitAllocation(JsonWriter &j, const AllocationResult &a)
{
    j.beginObject();
    j.field("duplicationDegree", a.duplicationDegree);
    j.field("totalPes", a.totalPes);
    j.field("maxIterations", a.maxIterations);
    j.field("replicas", a.replicas);
    j.field("smbBlocks", a.smbBlocks);
    j.field("clbBlocks", a.clbBlocks);
    j.key("groups").beginArray();
    for (const GroupAllocation &g : a.groups) {
        j.beginObject();
        j.field("group", g.group);
        j.field("duplication", g.duplication);
        j.field("pes", g.pes);
        j.field("iterations", g.iterations);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<AllocationResult>
readAllocation(const JsonValue &v)
{
    Deser d;
    AllocationResult a;
    a.duplicationDegree = d.i64(v, "duplicationDegree");
    a.totalPes = d.i64(v, "totalPes");
    a.maxIterations = d.i64(v, "maxIterations");
    a.replicas = d.i64(v, "replicas");
    a.smbBlocks = d.i64(v, "smbBlocks");
    a.clbBlocks = d.i64(v, "clbBlocks");
    for (const JsonValue &gv : d.arr(v, "groups").array()) {
        GroupAllocation g;
        g.group = static_cast<int>(d.i64(gv, "group"));
        g.duplication = d.i64(gv, "duplication");
        g.pes = d.i64(gv, "pes");
        g.iterations = d.i64(gv, "iterations");
        a.groups.push_back(g);
    }
    if (!d.status().ok())
        return d.status();
    return a;
}

void
emitNetlist(JsonWriter &j, const Netlist &nl)
{
    j.beginObject();
    j.key("blocks").beginArray();
    for (const Block &b : nl.blocks()) {
        j.beginObject();
        j.field("type", blockTypeName(b.type));
        j.field("name", b.name);
        j.field("groupId", static_cast<std::int64_t>(b.groupId));
        j.endObject();
    }
    j.endArray();
    j.key("nets").beginArray();
    for (const Net &n : nl.nets()) {
        j.beginObject();
        j.field("name", n.name);
        j.field("driver", static_cast<std::int64_t>(n.driver));
        j.key("sinks").beginArray();
        for (BlockId s : n.sinks)
            j.value(static_cast<std::int64_t>(s));
        j.endArray();
        j.field("width", n.width);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

StatusOr<Netlist>
readNetlist(const JsonValue &v)
{
    Deser d;
    Netlist nl;
    for (const JsonValue &bv : d.arr(v, "blocks").array()) {
        BlockType type;
        const std::string type_name = d.str(bv, "type");
        if (!d.status().ok())
            return d.status();
        if (!blockTypeFromName(type_name, type)) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: unknown block type '" +
                                     type_name + "'");
        }
        nl.addBlock(type, d.str(bv, "name"),
                    static_cast<std::int32_t>(d.i64(bv, "groupId")));
    }
    const std::int64_t block_count =
        static_cast<std::int64_t>(nl.blocks().size());
    for (const JsonValue &nv : d.arr(v, "nets").array()) {
        const std::int64_t driver = d.i64(nv, "driver");
        std::vector<BlockId> sinks;
        for (const JsonValue &s : d.arr(nv, "sinks").array()) {
            if (!s.isNumber()) {
                d.fail("non-numeric net sink");
                break;
            }
            sinks.push_back(static_cast<BlockId>(s.asInt()));
        }
        if (!d.status().ok())
            return d.status();
        bool in_range = driver >= 0 && driver < block_count;
        for (BlockId s : sinks)
            in_range = in_range && s >= 0 && s < block_count;
        if (!in_range) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: net references an out-of-range block");
        }
        // Netlist::addNet panics on a non-positive width, and a width
        // past INT32_MAX would wrap in the narrowing cast.
        const std::int64_t width = d.i64(nv, "width");
        if (!d.status().ok())
            return d.status();
        if (width < 1 || width > std::numeric_limits<std::int32_t>::max()) {
            return Status::error(StatusCode::InvalidArgument,
                                 "compiled model: net width " +
                                     std::to_string(width) +
                                     " is outside [1, INT32_MAX]");
        }
        nl.addNet(d.str(nv, "name"), static_cast<BlockId>(driver),
                  std::move(sinks), static_cast<int>(width));
    }
    if (!d.status().ok())
        return d.status();
    return nl;
}

void
emitPerformance(JsonWriter &j, const PerfReport &p)
{
    j.beginObject();
    j.field("throughput", p.throughput);
    j.field("latencyNs", p.latency);
    j.field("opsPerSecond", p.performance);
    j.field("areaMm2", p.area);
    j.field("energyPerSamplePj", p.energyPerSample);
    j.field("computePerPeNs", p.computePerPe);
    j.field("commPerPeNs", p.commPerPe);
    j.field("pes", p.pes);
    j.field("duplicationDegree", p.duplicationDegree);
    j.field("iterations", p.iterations);
    j.endObject();
}

PerfReport
readPerformance(Deser &d, const JsonValue &v)
{
    PerfReport p;
    p.throughput = d.num(v, "throughput");
    p.latency = d.num(v, "latencyNs");
    p.performance = d.num(v, "opsPerSecond");
    p.area = d.num(v, "areaMm2");
    p.energyPerSample = d.num(v, "energyPerSamplePj");
    p.computePerPe = d.num(v, "computePerPeNs");
    p.commPerPe = d.num(v, "commPerPeNs");
    p.pes = d.i64(v, "pes");
    p.duplicationDegree = d.i64(v, "duplicationDegree");
    p.iterations = d.i64(v, "iterations");
    return p;
}

void
emitResourceDemand(JsonWriter &j, const ResourceDemand &d)
{
    j.beginObject();
    j.field("peBlocks", d.peBlocks);
    j.field("smbBlocks", d.smbBlocks);
    j.field("clbBlocks", d.clbBlocks);
    j.field("routingTracks", d.routingTracks);
    j.endObject();
}

ResourceDemand
readResourceDemand(Deser &d, const JsonValue &v)
{
    ResourceDemand demand;
    demand.peBlocks = d.i64(v, "peBlocks");
    demand.smbBlocks = d.i64(v, "smbBlocks");
    demand.clbBlocks = d.i64(v, "clbBlocks");
    demand.routingTracks = d.i64(v, "routingTracks");
    return demand;
}

Status
validateArtifacts(const CompiledModel::Artifacts &a)
{
    auto invalid = [](std::string why) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: " + std::move(why));
    };
    if (a.graph.size() == 0)
        return invalid("graph has no nodes");
    if (a.graph.nodes().front().kind != OpKind::Input)
        return invalid("graph does not start with an input node");
    for (const GraphNode &n : a.graph.nodes()) {
        if (n.kind != OpKind::Conv2d && n.kind != OpKind::FullyConnected)
            continue;
        if (!n.weights.has_value()) {
            return invalid("node '" + n.name +
                           "' has no materialized weights; run "
                           "randomizeWeights (or a trainer) before "
                           "compiling");
        }
        // Weight geometry must match the node, or the executors'
        // kernels would assert mid-request and kill the server (the
        // shape a corrupt artifact is most likely to get wrong).
        if (n.inputs.empty())
            return invalid("node '" + n.name + "' has no inputs");
        const Shape &in =
            a.graph.node(n.inputs.front()).outShape;
        Shape expected;
        if (n.kind == OpKind::FullyConnected) {
            expected = {n.attrs.units, shapeNumel(in)};
        } else {
            if (n.attrs.groups < 1 || in.size() != 3)
                return invalid("node '" + n.name +
                               "' has malformed conv geometry");
            expected = {n.attrs.outChannels,
                        in.front() / n.attrs.groups, n.attrs.kernel,
                        n.attrs.kernel};
        }
        if (n.weights->shape() != expected) {
            return invalid("node '" + n.name + "' weight shape " +
                           shapeToString(n.weights->shape()) +
                           " does not match the expected " +
                           shapeToString(expected));
        }
    }
    if (a.synthesis.groups.empty())
        return invalid("synthesis summary has no groups");
    if (a.allocation.totalPes <= 0)
        return invalid("allocation has no PEs");
    // Negative demand would be admitted against an inflated chip
    // budget (resident sums go negative), bypassing admission control.
    if (a.demand.peBlocks < 0 || a.demand.smbBlocks < 0 ||
        a.demand.clbBlocks < 0 || a.demand.routingTracks < 0) {
        return invalid("resource demand has negative components");
    }
    const std::int64_t blocks =
        static_cast<std::int64_t>(a.netlist.blocks().size());
    for (const Net &n : a.netlist.nets()) {
        bool ok = n.driver >= 0 && n.driver < blocks;
        for (BlockId s : n.sinks)
            ok = ok && s >= 0 && s < blocks;
        if (!ok)
            return invalid("netlist net '" + n.name +
                           "' references an out-of-range block");
    }
    return Status();
}

} // namespace

StatusOr<CompiledModel>
CompiledModel::fromArtifacts(Artifacts artifacts)
{
    Status valid = validateArtifacts(artifacts);
    if (!valid.ok())
        return valid;
    if (artifacts.demand.zero()) {
        // Qualified: the member accessor of the same name would win
        // unqualified lookup inside the class.
        artifacts.demand = fpsa::resourceDemand(artifacts.allocation,
                                                artifacts.netlist);
    }
    return CompiledModel(std::move(artifacts));
}

namespace
{

/**
 * One slot of the derived-artifact cache: built at most once, the
 * failure Status is cached too (a model outside the spiking family
 * should not re-attempt calibration per executor).
 */
template <typename T>
struct DerivedSlot
{
    bool attempted = false;
    Status status;
    std::shared_ptr<const T> value;

    template <typename Build>
    StatusOr<std::shared_ptr<const T>>
    get(std::mutex &mu, Build build)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!attempted) {
            attempted = true;
            StatusOr<T> built = build();
            if (built.ok())
                value = std::make_shared<const T>(
                    std::move(built).value());
            else
                status = built.status();
        }
        if (!status.ok())
            return status;
        return value;
    }
};

} // namespace

struct CompiledModel::DerivedCache
{
    std::mutex mu;
    // One plan per (precision, resolved ISA): tenants that override
    // their model's stamped config get their own packed/quantized
    // panels, tenants that agree share them.  std::map keeps slot
    // addresses stable while new combos are inserted.
    std::map<std::pair<int, int>, DerivedSlot<ExecutionPlan>> plans;
    DerivedSlot<FunctionalSynthesis> synthesis;
};

CompiledModel::CompiledModel(Artifacts artifacts)
    : a_(std::move(artifacts)), cache_(std::make_shared<DerivedCache>())
{
}

StatusOr<std::shared_ptr<const ExecutionPlan>>
CompiledModel::executionPlan() const
{
    return executionPlan(a_.execution.precision,
                         a_.execution.kernelIsa);
}

StatusOr<std::shared_ptr<const ExecutionPlan>>
CompiledModel::executionPlan(PrecisionMode precision,
                             KernelIsa kernelIsa) const
{
    // Key on the *resolved* ISA so Auto and its resolution share one
    // plan (and one copy of the packed weights).
    const KernelIsa resolved = resolveKernelIsa(kernelIsa);
    DerivedSlot<ExecutionPlan> *slot;
    {
        std::lock_guard<std::mutex> lock(cache_->mu);
        slot = &cache_->plans[{static_cast<int>(precision),
                               static_cast<int>(resolved)}];
    }
    return slot->get(cache_->mu, [&] {
        return ExecutionPlan::build(
            a_.graph, PlanOptions{precision, resolved});
    });
}

namespace
{

/**
 * Deterministic probe input for activation-scale calibration: a smooth
 * full-range wave (the value pattern the repo's spiking demos use), so
 * two processes loading the same artifact build identical lowerings.
 */
Tensor
calibrationProbe(const Shape &shape)
{
    Tensor probe(shape);
    for (std::int64_t i = 0; i < probe.numel(); ++i) {
        probe[i] = 0.5f +
                   0.5f * std::sin(static_cast<float>(i) * 0.37f);
    }
    return probe;
}

} // namespace

StatusOr<std::shared_ptr<const FunctionalSynthesis>>
CompiledModel::functionalSynthesis() const
{
    return cache_->synthesis.get(cache_->mu, [this] {
        return synthesizeFunctional(a_.graph,
                                    calibrationProbe(inputShape()),
                                    a_.options.synth);
    });
}

const Shape &
CompiledModel::inputShape() const
{
    return a_.graph.nodes().front().outShape;
}

const Shape &
CompiledModel::outputShape() const
{
    return a_.graph.nodes().back().outShape;
}

std::string
CompiledModel::toJson() const
{
    JsonWriter j;
    j.beginObject();
    j.field("format", kFormat);
    j.field("version", kVersion);
    j.key("options");
    emitOptions(j, a_.options);
    j.key("graph");
    emitGraph(j, a_.graph);
    j.key("synthesis");
    emitSynthesis(j, a_.synthesis);
    j.key("allocation");
    emitAllocation(j, a_.allocation);
    j.key("netlist");
    emitNetlist(j, a_.netlist);
    j.key("timing");
    if (a_.timing.has_value()) {
        j.beginObject();
        j.field("avgNetDelayNs", a_.timing->avgNetDelay);
        j.field("maxNetDelayNs", a_.timing->maxNetDelay);
        j.field("routed", a_.timing->routed);
        j.field("placementHpwl", a_.timing->placementHpwl);
        j.endObject();
    } else {
        j.null();
    }
    j.key("resourceDemand");
    emitResourceDemand(j, a_.demand);
    j.key("execution").beginObject();
    j.field("executor", executorKindName(a_.execution.executor));
    j.field("precision", precisionModeName(a_.execution.precision));
    j.field("kernelIsa", kernelIsaName(a_.execution.kernelIsa));
    j.endObject();
    j.key("performance");
    emitPerformance(j, a_.performance);
    j.key("energy").beginObject();
    j.field("pePj", a_.energy.breakdown.pe);
    j.field("smbPj", a_.energy.breakdown.smb);
    j.field("clbPj", a_.energy.breakdown.clb);
    j.field("routingPj", a_.energy.breakdown.routing);
    j.endObject();
    j.endObject();
    return j.str();
}

StatusOr<CompiledModel>
CompiledModel::fromJson(const std::string &text)
{
    auto doc = parseJson(text);
    if (!doc.ok())
        return doc.status();

    Deser d;
    if (d.str(*doc, "format") != kFormat) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: not a " +
                                 std::string(kFormat) + " document");
    }
    const std::int64_t version = d.i64(*doc, "version");
    if (!d.status().ok())
        return d.status();
    if (version < kMinReadVersion || version > kVersion) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: unsupported version " +
                                 std::to_string(version));
    }

    Artifacts a;
    a.options = readOptions(d, d.obj(*doc, "options"));
    if (!d.status().ok())
        return d.status();

    auto graph = readGraph(d.obj(*doc, "graph"));
    if (!graph.ok())
        return graph.status();
    a.graph = std::move(graph).value();

    auto synthesis = readSynthesis(d.obj(*doc, "synthesis"));
    if (!synthesis.ok())
        return synthesis.status();
    a.synthesis = std::move(synthesis).value();

    auto allocation = readAllocation(d.obj(*doc, "allocation"));
    if (!allocation.ok())
        return allocation.status();
    a.allocation = std::move(allocation).value();

    auto netlist = readNetlist(d.obj(*doc, "netlist"));
    if (!netlist.ok())
        return netlist.status();
    a.netlist = std::move(netlist).value();

    const JsonValue &timing = (*doc)["timing"];
    if (timing.isObject()) {
        CompiledTiming t;
        t.avgNetDelay = d.num(timing, "avgNetDelayNs");
        t.maxNetDelay = d.num(timing, "maxNetDelayNs");
        t.routed = d.flag(timing, "routed");
        t.placementHpwl = d.num(timing, "placementHpwl");
        a.timing = t;
    }

    if (version >= 2) {
        a.demand = readResourceDemand(d, d.obj(*doc, "resourceDemand"));
    } // v1: left zero; fromArtifacts derives it from allocation+netlist.

    if (version >= 3) {
        const JsonValue &execution = d.obj(*doc, "execution");
        const std::string executor = d.str(execution, "executor");
        const std::string precision = d.str(execution, "precision");
        const std::string isa = d.str(execution, "kernelIsa");
        if (!d.status().ok())
            return d.status();
        if (!parseExecutorKind(executor, a.execution.executor) ||
            !parsePrecisionMode(precision, a.execution.precision) ||
            !parseKernelIsa(isa, a.execution.kernelIsa)) {
            return Status::error(
                StatusCode::InvalidArgument,
                "compiled model: unknown execution config '" +
                    executor + "/" + precision + "/" + isa + "'");
        }
    } // v1/v2: all-default ExecutionConfig.

    a.performance = readPerformance(d, d.obj(*doc, "performance"));
    const JsonValue &energy = d.obj(*doc, "energy");
    a.energy.breakdown.pe = d.num(energy, "pePj");
    a.energy.breakdown.smb = d.num(energy, "smbPj");
    a.energy.breakdown.clb = d.num(energy, "clbPj");
    a.energy.breakdown.routing = d.num(energy, "routingPj");
    if (!d.status().ok())
        return d.status();

    return fromArtifacts(std::move(a));
}

Status
CompiledModel::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: cannot open '" + path +
                                 "' for writing");
    }
    const std::string text = toJson();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.put('\n');
    out.flush();
    if (!out) {
        return Status::error(StatusCode::Internal,
                             "compiled model: short write to '" + path +
                                 "'");
    }
    return Status();
}

StatusOr<CompiledModel>
CompiledModel::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return Status::error(StatusCode::InvalidArgument,
                             "compiled model: cannot open '" + path +
                                 "' for reading");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return Status::error(StatusCode::Internal,
                             "compiled model: read error on '" + path +
                                 "'");
    }
    return fromJson(buffer.str());
}

} // namespace fpsa
