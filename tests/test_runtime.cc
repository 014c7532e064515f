/**
 * @file
 * Tests for the serving runtime: `CompiledModel` serialization
 * round-trips (save -> load -> infer, bit-identical), `Engine`
 * concurrency (parallel submit() agrees with sequential infer()),
 * shutdown drain semantics, backpressure, executor backends, and the
 * JSON parser underneath it all.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/models.hh"
#include "pipeline.hh"
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"
#include "runtime/executor.hh"

namespace fpsa
{
namespace
{

/** A small weighted CNN in the functional-synthesis family. */
Graph
smallCnn(std::uint64_t seed = 42)
{
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().maxPool(2, 2).flatten().fc(10);
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

CompiledModel
compileSmallCnn(std::uint64_t seed = 42)
{
    Pipeline p(smallCnn(seed));
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::move(compiled).value();
}

Tensor
probeInput(float scale = 1.0f)
{
    Tensor t({1, 8, 8});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = scale * static_cast<float>(i % 7) / 7.0f;
    return t;
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

/**
 * Single-sample output of the engine's default (planned) backend: the
 * ground truth engine results must match bit-for-bit, batched or not.
 */
Tensor
plannedGroundTruth(const std::shared_ptr<const CompiledModel> &model,
                   const Tensor &input)
{
    auto executor = makeExecutor(model, ExecutionConfig{});
    EXPECT_TRUE(executor.ok()) << executor.status().toString();
    auto out = (*executor)->run(input);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return std::move(out).value();
}

/** A compiled model of input `{1}` -> fc whose weights are `weights`. */
CompiledModel
compileFcWithWeights(std::vector<float> weights)
{
    const int units = static_cast<int>(weights.size());
    GraphBuilder b({1});
    b.fc(units);
    Graph g = b.build();
    g.node(1).weights = Tensor({units, 1}, std::move(weights));
    Pipeline p(g);
    auto compiled = p.compile();
    EXPECT_TRUE(compiled.ok()) << compiled.status().toString();
    return std::move(compiled).value();
}

/**
 * `text` with the value of the first `"key":` member after the first
 * `anchor` replaced by `replacement` (raw JSON).  The value may be a
 * number, a string or an array of numbers.
 */
std::string
replaceMember(std::string text, const std::string &anchor,
              const std::string &key, const std::string &replacement)
{
    const std::size_t from = text.find(anchor);
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle, from);
    if (from == std::string::npos || at == std::string::npos) {
        ADD_FAILURE() << "no " << needle << " after " << anchor;
        return {};
    }
    const std::size_t begin = at + needle.size();
    std::size_t end;
    if (text[begin] == '[')
        end = text.find(']', begin) + 1;
    else if (text[begin] == '"')
        end = text.find('"', begin + 1) + 1;
    else
        end = text.find_first_of(",}", begin);
    text.replace(begin, end - begin, replacement);
    return text;
}

/** The first weight tensor's base64 payload in `text`. */
std::string
firstPayload(const std::string &text)
{
    const std::string needle = "\"data\":\"";
    const std::size_t begin = text.find(needle) + needle.size();
    return text.substr(begin, text.find('"', begin) - begin);
}

/**
 * `model`'s document in the v1-v3 layout: version 3, and every weight
 * tensor's `data` an array of shortest round-trip decimals.
 */
std::string
legacyDocument(const CompiledModel &model)
{
    std::string text =
        replaceMember(model.toJson(), "\"format\"", "version", "3");
    std::size_t at = 0;
    for (const GraphNode &n : model.graph().nodes()) {
        if (!n.weights.has_value())
            continue;
        std::string array = "[";
        for (std::int64_t i = 0; i < n.weights->numel(); ++i) {
            char buf[32];
            const auto r =
                std::to_chars(buf, buf + sizeof(buf), (*n.weights)[i]);
            if (i > 0)
                array += ',';
            array.append(buf, r.ptr);
        }
        array += ']';
        const std::string needle = "\"data\":";
        at = text.find(needle, at);
        if (at == std::string::npos) {
            ADD_FAILURE() << "fewer payloads than weighted nodes";
            return {};
        }
        const std::size_t begin = at + needle.size();
        const std::size_t end = text.find('"', begin + 1) + 1;
        text.replace(begin, end - begin, array);
        at = begin + array.size();
    }
    return text;
}

void
expectSameWeightBits(const Graph &a, const Graph &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t id = 0; id < a.size(); ++id) {
        const auto &wa = a.nodes()[id].weights;
        const auto &wb = b.nodes()[id].weights;
        ASSERT_EQ(wa.has_value(), wb.has_value()) << "node " << id;
        if (!wa.has_value())
            continue;
        ASSERT_EQ(wa->shape(), wb->shape()) << "node " << id;
        for (std::int64_t i = 0; i < wa->numel(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>((*wa)[i]),
                      std::bit_cast<std::uint32_t>((*wb)[i]))
                << "node " << id << " element " << i;
        }
    }
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "fpsa \"quoted\"\n");
    w.field("count", static_cast<std::int64_t>(-17));
    w.field("ratio", 0.25);
    w.field("flag", true);
    w.key("null").null();
    w.key("nested").beginArray();
    w.value(1).value(2.5).value("x");
    w.beginObject().field("k", "v").endObject();
    w.endArray();
    w.endObject();

    auto doc = parseJson(w.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_EQ((*doc)["name"].string(), "fpsa \"quoted\"\n");
    EXPECT_EQ((*doc)["count"].asInt(), -17);
    EXPECT_DOUBLE_EQ((*doc)["ratio"].number(), 0.25);
    EXPECT_TRUE((*doc)["flag"].boolean());
    EXPECT_TRUE((*doc)["null"].isNull());
    ASSERT_EQ((*doc)["nested"].size(), 4u);
    EXPECT_EQ((*doc)["nested"].at(3)["k"].string(), "v");
}

TEST(JsonParser, IntegerReadsSaturateInsteadOfOverflowing)
{
    // A plain cast of these doubles to int64 is undefined; a corrupt
    // artifact must read as an out-of-range value that validation can
    // reject.
    auto doc = parseJson("[1e30, -1e30, 9223372036854775808, -42.9]");
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    EXPECT_EQ(doc->at(0).asInt(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(doc->at(1).asInt(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(doc->at(2).asInt(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(doc->at(3).asInt(), -42);
}

TEST(JsonParser, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\":1}x", "\"unterminated",
          "{\"a\" 1}", "nul", "nan", "inf", "[-inf]", "+1", "1e999",
          "\"escape at the end\\"}) {
        auto doc = parseJson(bad);
        EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
        if (!doc.ok()) {
            EXPECT_EQ(doc.status().code(), StatusCode::InvalidArgument);
        }
    }
}

// --------------------------------------------------------- CompiledModel

TEST(CompiledModel, CompileRequiresMaterializedWeights)
{
    GraphBuilder b({1, 8, 8});
    b.flatten().fc(4);
    Pipeline p(b.build()); // no randomizeWeights
    auto compiled = p.compile();
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::InvalidArgument);
}

TEST(CompiledModel, RejectsWeightsWhoseShapeDisagreesWithTheNode)
{
    // Weight geometry that doesn't match the node would assert inside
    // the executors' kernels mid-request; it must be caught when the
    // bundle is frozen (and therefore also on load()).
    Graph g = smallCnn();
    for (NodeId id = 0; id < static_cast<NodeId>(g.size()); ++id) {
        if (g.node(id).kind == OpKind::FullyConnected)
            g.node(id).weights = Tensor({1}, {0.5f});
    }
    Pipeline p(g);
    auto compiled = p.compile();
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(compiled.status().message().find("weight shape"),
              std::string::npos);
}

TEST(CompiledModel, JsonRoundTripIsLossless)
{
    CompiledModel original = compileSmallCnn();
    const std::string text = original.toJson();

    auto reloaded = CompiledModel::fromJson(text);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
    // The reloaded artifact re-serializes to the exact same document:
    // graph, weights, summary, allocation, netlist, perf all survive.
    EXPECT_EQ(reloaded->toJson(), text);
}

TEST(CompiledModel, SaveLoadInferIsBitIdentical)
{
    CompiledModel original = compileSmallCnn();
    const std::string path = "test_runtime_roundtrip.fpsa.json";
    ASSERT_TRUE(original.save(path).ok());

    auto loaded = CompiledModel::load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

    for (ExecutorKind kind :
         {ExecutorKind::Reference, ExecutorKind::Spiking}) {
        auto exec_a = makeExecutor(
            std::make_shared<CompiledModel>(original),
            ExecutionConfig{kind});
        auto exec_b = makeExecutor(
            std::make_shared<CompiledModel>(*loaded),
            ExecutionConfig{kind});
        ASSERT_TRUE(exec_a.ok() && exec_b.ok());
        for (float scale : {0.25f, 1.0f}) {
            auto out_a = (*exec_a)->run(probeInput(scale));
            auto out_b = (*exec_b)->run(probeInput(scale));
            ASSERT_TRUE(out_a.ok() && out_b.ok());
            expectBitIdentical(*out_a, *out_b);
        }
    }
}

TEST(CompiledModel, LoadRejectsCorruptDocuments)
{
    auto missing = CompiledModel::load("does_not_exist.fpsa.json");
    ASSERT_FALSE(missing.ok());

    auto garbage = CompiledModel::fromJson("not json at all");
    ASSERT_FALSE(garbage.ok());
    EXPECT_EQ(garbage.status().code(), StatusCode::InvalidArgument);

    auto wrong_format = CompiledModel::fromJson("{\"format\":\"other\"}");
    ASSERT_FALSE(wrong_format.ok());
    EXPECT_EQ(wrong_format.status().code(), StatusCode::InvalidArgument);

    // A structurally valid document with a dangling netlist reference.
    CompiledModel model = compileSmallCnn();
    const std::string good = model.toJson();
    std::string text = good;
    const std::string needle = "\"driver\":";
    std::size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size() + 1, needle + "999999");
    auto dangling = CompiledModel::fromJson(text);
    ASSERT_FALSE(dangling.ok());
    EXPECT_EQ(dangling.status().code(), StatusCode::InvalidArgument);

    // Corrupt legacy weight data (a null element) must be rejected, not
    // silently coerced to 0.  Replace the first element in place so
    // the element count still matches the shape.
    text = legacyDocument(model);
    const std::string data_needle = "\"data\":[";
    at = text.find(data_needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t first = at + data_needle.size();
    const std::size_t comma = text.find(',', first);
    ASSERT_NE(comma, std::string::npos);
    text.replace(first, comma - first, "null");
    auto null_weight = CompiledModel::fromJson(text);
    ASSERT_FALSE(null_weight.ok());
    EXPECT_EQ(null_weight.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(null_weight.status().message().find("non-numeric"),
              std::string::npos);
}

TEST(CompiledModel, LoadRejectsCorruptOpGeometry)
{
    // Each edit reaches an inferShape assertion (or an integer division
    // by zero) unless readGraph checks the geometry first.
    const std::string cnn = compileSmallCnn().toJson();

    GraphBuilder residual({1, 8, 8});
    residual.conv(4, 3, 1, 1);
    const NodeId left = residual.tip();
    residual.at(0).conv(4, 3, 1, 1).add({left}).relu().globalAvgPool().fc(
        10);
    GraphBuilder pooled({1, 8, 8});
    pooled.globalAvgPool().fc(10);
    GraphBuilder joined({1, 8, 8});
    joined.concat({0, 0}).flatten().fc(10);
    // (3 - 4) / 2 + 1 truncates to a 1-wide output: legal at the edge.
    GraphBuilder edge({1, 3, 3});
    edge.maxPool(4, 2).flatten().fc(2);
    std::vector<std::string> docs;
    for (GraphBuilder *b : {&residual, &pooled, &joined, &edge}) {
        Graph g = b->build();
        Rng rng(7);
        randomizeWeights(g, rng);
        auto compiled = Pipeline(g).compile();
        ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
        docs.push_back(compiled->toJson());
    }

    struct Edit
    {
        const std::string *doc;
        const char *anchor;
        const char *key;
        const char *value;
        const char *reason;
    };
    const Edit edits[] = {
        {&cnn, "\"kind\":\"conv2d\"", "kernel", "500", "windowed output dim"},
        {&cnn, "\"kind\":\"conv2d\"", "kernel", "0", "kernel >= 1"},
        {&cnn, "\"kind\":\"conv2d\"", "stride", "0", "stride >= 1"},
        {&cnn, "\"kind\":\"conv2d\"", "pad", "-1", "pad >= 0"},
        {&cnn, "\"kind\":\"conv2d\"", "groups", "0", "groups >= 1"},
        {&cnn, "\"kind\":\"conv2d\"", "groups", "3", "dividing both channel"},
        {&cnn, "\"kind\":\"conv2d\"", "outChannels", "0", "outChannels >= 1"},
        {&cnn, "\"kind\":\"input\"", "outShape", "[64]",
         "conv2d_1' needs one CHW input"},
        {&cnn, "\"kind\":\"input\"", "outShape", "[1,-8,-8]", "dim below 1"},
        {&cnn, "\"kind\":\"maxpool\"", "kernel", "500", "windowed output dim"},
        {&cnn, "\"kind\":\"maxpool\"", "stride", "0", "stride >= 1"},
        {&cnn, "\"kind\":\"relu\"", "inputs", "[1,1]", "one input"},
        {&cnn, "\"kind\":\"fc\"", "units", "0", "units >= 1"},
        {&docs[0], "\"kind\":\"add\"", "inputs", "[2,0]", "different shapes"},
        {&docs[0], "\"kind\":\"add\"", "inputs", "[2]", "two or more"},
        {&docs[1], "\"kind\":\"input\"", "outShape", "[64]",
         "gavgpool_1' needs one CHW input"},
        {&docs[2], "\"kind\":\"input\"", "outShape", "[64]",
         "concat_1' needs CHW inputs"},
        {&docs[3], "\"kind\":\"maxpool\"", "kernel", "5",
         "windowed output dim"},
    };
    for (const Edit &e : edits) {
        auto loaded = CompiledModel::fromJson(
            replaceMember(*e.doc, e.anchor, e.key, e.value));
        const std::string what =
            std::string(e.anchor) + " " + e.key + " = " + e.value;
        ASSERT_FALSE(loaded.ok()) << what;
        EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument)
            << what;
        EXPECT_NE(loaded.status().message().find(e.reason),
                  std::string::npos)
            << what << ": " << loaded.status().toString();
    }
    for (const std::string &doc : docs)
        EXPECT_TRUE(CompiledModel::fromJson(doc).ok());
}

TEST(CompiledModel, LoadRejectsOverflowingShapes)
{
    // Saved shapes that agree with each other but whose element counts
    // (or padded dims) overflow int64 inside shape inference.  The first
    // case once reached shapeNumel through inferShape(Flatten) and
    // multiplied 4 * (2^39 - 1)^2.
    const std::string cnn = compileSmallCnn().toJson();
    const std::string huge = replaceMember(
        replaceMember(
            replaceMember(replaceMember(cnn, "\"kind\":\"input\"",
                                        "outShape", "[1,1099511627776,"
                                                    "1099511627776]"),
                          "\"kind\":\"conv2d\"", "outShape",
                          "[4,1099511627774,1099511627774]"),
            "\"kind\":\"relu\"", "outShape",
            "[4,1099511627774,1099511627774]"),
        "\"kind\":\"maxpool\"", "outShape", "[4,549755813887,549755813887]");
    // 2^31 x 2^31 fits; the conv's four output channels do not.
    const std::string wide_conv = replaceMember(
        replaceMember(cnn, "\"kind\":\"input\"", "outShape",
                      "[1,2147483648,2147483648]"),
        "\"kind\":\"conv2d\"", "outShape", "[4,2147483646,2147483646]");

    GraphBuilder joined({1, 8, 8});
    joined.concat({0, 0}).flatten().fc(10);
    GraphBuilder padded({1, 8, 8});
    padded.conv(4, 3, 1, 1).flatten().fc(10);
    std::vector<std::string> docs;
    for (GraphBuilder *b : {&joined, &padded}) {
        Graph g = b->build();
        Rng rng(7);
        randomizeWeights(g, rng);
        auto compiled = Pipeline(g).compile();
        ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
        docs.push_back(compiled->toJson());
    }
    const std::string concat_channels =
        replaceMember(docs[0], "\"kind\":\"input\"", "outShape",
                      "[4611686018427387904,1,1]");
    const std::string padded_dim =
        replaceMember(docs[1], "\"kind\":\"input\"", "outShape",
                      "[1,9223372036854775807,1]");

    const std::pair<const std::string *, const char *> cases[] = {
        {&huge, "input' outShape [1, 1099511627776, 1099511627776] has"},
        {&wide_conv, "conv2d_1' outShape [4, 2147483646, 2147483646] has"},
        {&concat_channels, "channel count beyond int64"},
        {&padded_dim, "padded input dim beyond int64"},
    };
    for (const auto &[doc, reason] : cases) {
        auto loaded = CompiledModel::fromJson(*doc);
        ASSERT_FALSE(loaded.ok()) << reason;
        EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument)
            << reason;
        EXPECT_NE(loaded.status().message().find(reason), std::string::npos)
            << loaded.status().toString();
    }
}

// -------------------------------------------------------- weight encoding

TEST(WeightEncoding, PayloadIsLittleEndianBinary32Base64)
{
    // Known answers pin the format: 1.0f is 0x3F800000, -0.0f is
    // 0x80000000, stored least significant byte first.
    EXPECT_EQ(firstPayload(compileFcWithWeights({1.0f}).toJson()),
              "AACAPw==");
    EXPECT_EQ(firstPayload(compileFcWithWeights({-0.0f}).toJson()),
              "AAAAgA==");
    EXPECT_EQ(
        firstPayload(compileFcWithWeights({1.0f, -0.0f, 2.0f}).toJson()),
        "AACAPwAAAIAAAABA");
}

TEST(WeightEncoding, EdgeValuesRoundTripBitExactly)
{
    const std::vector<float> edge = {
        -0.0f,
        0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::bit_cast<float>(std::uint32_t{0x007FFFFF}), // largest subnormal
        FLT_MAX,
        -FLT_MAX,
        FLT_MIN,
        -FLT_MIN,
        std::nextafter(1.0f, 2.0f), // needs 9 significant digits
        0.1f,
        1.0f / 3.0f,
        std::bit_cast<float>(std::uint32_t{0x4B7FFFFF}), // 16777215
        std::bit_cast<float>(std::uint32_t{0x3EAAAAAB}),
    };
    // 1, 2 and 3 elements hit the two-, one- and no-padding cases.
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          edge.size()}) {
        const std::vector<float> weights(edge.begin(), edge.begin() + n);
        CompiledModel model = compileFcWithWeights(weights);
        const std::string text = model.toJson();
        const std::string payload = firstPayload(text);
        EXPECT_EQ(payload.size(), (4 * n + 2) / 3 * 4) << n;
        EXPECT_EQ(std::count(payload.begin(), payload.end(), '='),
                  static_cast<std::ptrdiff_t>((3 - 4 * n % 3) % 3))
            << n;

        auto reloaded = CompiledModel::fromJson(text);
        ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
        expectSameWeightBits(model.graph(), reloaded->graph());
        EXPECT_EQ(reloaded->toJson(), text) << n;

        auto legacy = CompiledModel::fromJson(legacyDocument(model));
        ASSERT_TRUE(legacy.ok()) << legacy.status().toString();
        expectSameWeightBits(model.graph(), legacy->graph());
    }
}

TEST(WeightEncoding, LegacyDecimalDocumentLoadsBitIdentically)
{
    CompiledModel model = compileSmallCnn();
    const std::string v4 = model.toJson();
    const std::string v3 = legacyDocument(model);
    ASSERT_EQ(v3.find("\"data\":\""), std::string::npos);
    ASSERT_NE(v3.find("\"version\":3"), std::string::npos);

    auto from_v4 = CompiledModel::fromJson(v4);
    auto from_v3 = CompiledModel::fromJson(v3);
    ASSERT_TRUE(from_v4.ok()) << from_v4.status().toString();
    ASSERT_TRUE(from_v3.ok()) << from_v3.status().toString();
    expectSameWeightBits(from_v4->graph(), from_v3->graph());
    // A legacy document re-serializes as the v4 document.
    EXPECT_EQ(from_v3->toJson(), v4);
}

TEST(WeightEncoding, CorruptPayloadsAreRejectedNotAborted)
{
    const std::string three = compileFcWithWeights({1, 2, 3}).toJson();
    const std::string one = compileFcWithWeights({1}).toJson();
    const std::string payload = firstPayload(three);
    ASSERT_EQ(payload.size(), 16u);
    const std::string two_floats =
        firstPayload(compileFcWithWeights({1, 2}).toJson());
    const std::string four_floats =
        firstPayload(compileFcWithWeights({1, 2, 3, 4}).toJson());
    const auto quoted = [](const std::string &p) {
        return "\"" + p + "\"";
    };

    struct Case
    {
        const std::string *doc;
        std::string data;
        const char *reason;
    };
    const char *alphabet = "not in the alphabet";
    const char *length = "not a multiple of 4";
    const char *early_pad = "before the end";
    const char *size = "not 4 per element";
    const char *not_finite = "not finite";
    const Case cases[] = {
        {&three, quoted("*" + payload.substr(1)), alphabet},
        {&three, quoted("-" + payload.substr(1)), alphabet}, // url-safe
        {&three, quoted("\\u00e9" + payload.substr(2)), alphabet},
        {&three, quoted(payload.substr(1)), length},
        {&three, quoted(payload + "A"), length},
        {&three, quoted("=" + payload.substr(1)), early_pad},
        {&three, quoted(payload.substr(0, 8) + "=" + payload.substr(9)),
         early_pad},
        {&one, quoted("A==="), size},
        {&three, quoted(two_floats), size},
        {&three, quoted(four_floats), size},
        {&three, quoted(""), size},
        {&one, quoted("AADAfw=="), not_finite}, // quiet NaN
        {&one, quoted("AQCAfw=="), not_finite}, // signalling NaN
        {&one, quoted("AADA/w=="), not_finite}, // negative NaN
        {&one, quoted("AACAfw=="), not_finite}, // +inf
        {&one, quoted("AACA/w=="), not_finite}, // -inf
        {&one, quoted("AACAPx=="), "padding bits are not zero"},
        {&three, "42", "neither"},
        {&three, "{}", "neither"},
        {&three, "null", "neither"},
    };
    for (const Case &c : cases) {
        auto loaded = CompiledModel::fromJson(
            replaceMember(*c.doc, "\"weights\"", "data", c.data));
        ASSERT_FALSE(loaded.ok()) << c.data;
        EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument)
            << c.data;
        const std::string &message = loaded.status().message();
        EXPECT_NE(message.find("weight data of node 1 ('fc_1')"),
                  std::string::npos)
            << c.data << ": " << message;
        EXPECT_NE(message.find(c.reason), std::string::npos)
            << c.data << ": " << message;
    }
    // The untouched documents load.
    EXPECT_TRUE(CompiledModel::fromJson(three).ok());
    EXPECT_TRUE(CompiledModel::fromJson(one).ok());
}

TEST(CompiledModel, LoadRejectsOutOfRangeNetWidth)
{
    // A net width outside [1, INT32_MAX] must come back as a Status,
    // not reach Netlist::addNet's assertion (<= 0), wrap in the cast
    // to int (2^40 would become 0) or overflow the cast to int64 (1e30).
    const std::string good = compileSmallCnn().toJson();
    const std::string needle = "\"width\":";
    const std::size_t at = good.find(needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t first = at + needle.size();
    const std::size_t end = good.find_first_of(",}", first);
    ASSERT_NE(end, std::string::npos);
    const auto withWidth = [&](const std::string &width) {
        std::string text = good;
        text.replace(first, end - first, width);
        return CompiledModel::fromJson(text);
    };

    EXPECT_TRUE(withWidth("3").ok()) << "a legal width still loads";
    for (const char *width : {"0", "-1", "1099511627776", "1e30"}) {
        auto loaded = withWidth(width);
        ASSERT_FALSE(loaded.ok()) << "width " << width;
        EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument)
            << "width " << width;
        EXPECT_NE(loaded.status().message().find("net width"),
                  std::string::npos)
            << loaded.status().toString();
    }
}

TEST(CompiledModel, CarriesPnrTimingWhenRequested)
{
    Graph g = smallCnn();
    CompileOptions options;
    options.duplicationDegree = 2;
    options.runPlaceAndRoute = true;
    Pipeline p(g, options);
    auto compiled = p.compile();
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    ASSERT_TRUE(compiled->timing().has_value());
    EXPECT_GT(compiled->timing()->avgNetDelay, 0.0);

    auto reloaded = CompiledModel::fromJson(compiled->toJson());
    ASSERT_TRUE(reloaded.ok());
    ASSERT_TRUE(reloaded->timing().has_value());
    EXPECT_EQ(reloaded->timing()->routed, compiled->timing()->routed);
}

// ----------------------------------------------------------------- Engine

TEST(Engine, RejectsBadOptionsAndUnservableModels)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());

    EngineOptions zero_workers;
    zero_workers.workerThreads = 0;
    EXPECT_FALSE(Engine::create(model, zero_workers).ok());

    // Spiking backend on a graph outside the functional family.
    GraphBuilder b({1, 8, 8});
    b.conv(2, 3, 1, 0).relu().avgPool(2, 2).flatten().fc(4);
    Graph g = b.build();
    Rng rng(5);
    randomizeWeights(g, rng);
    Pipeline p(g);
    auto compiled = p.compile();
    ASSERT_TRUE(compiled.ok());
    EngineOptions spiking;
    spiking.execution = ExecutionConfig{ExecutorKind::Spiking};
    auto engine = Engine::create(
        std::make_shared<CompiledModel>(std::move(compiled).value()),
        spiking);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::InvalidArgument);
}

TEST(Engine, InferMatchesDirectExecutionAndCarriesModeledCost)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto engine = Engine::create(model, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    const Tensor expected = plannedGroundTruth(model, probeInput());
    auto result = (*engine)->infer(probeInput());
    ASSERT_TRUE(result.ok()) << result.status().toString();
    expectBitIdentical(result->output, expected);

    // And the planned backend agrees with the golden reference
    // kernels within float-vs-double accumulation noise.
    const Tensor reference = runGraphFinal(model->graph(), probeInput());
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
        EXPECT_NEAR(result->output[i], reference[i],
                    1e-4 * std::max(1.0f, reference.absMax()))
            << "element " << i;
    }
    EXPECT_EQ(result->modeledLatency, model->performance().latency);
    EXPECT_EQ(result->modeledEnergy, model->energy().perSample());
    EXPECT_GE(result->batchSize, 1);

    // Shape mismatches are per-request Status data, not aborts.
    auto bad = (*engine)->infer(Tensor({2, 8, 8}));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ((*engine)->stats().failed, 1);
}

TEST(Engine, ConcurrentSubmitsMatchSequentialInference)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());

    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;

    // Sequential single-sample ground truth: the engine coalesces
    // these into batches, and the planned batch path is bit-identical
    // per sample to single-sample execution.
    std::vector<Tensor> expected;
    for (int i = 0; i < kThreads * kPerThread; ++i) {
        expected.push_back(plannedGroundTruth(
            model,
            probeInput(static_cast<float>(i % 5) * 0.3f + 0.1f)));
    }

    EngineOptions options;
    options.workerThreads = 4;
    options.maxBatch = 4;
    options.queueDepth = 16;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());

    std::vector<std::future<StatusOr<InferenceResult>>> futures(
        static_cast<std::size_t>(kThreads * kPerThread));
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const int id = t * kPerThread + i;
                futures[static_cast<std::size_t>(id)] = (*engine)->submit(
                    probeInput(static_cast<float>(id % 5) * 0.3f +
                               0.1f));
            }
        });
    }
    for (auto &c : clients)
        c.join();

    for (int id = 0; id < kThreads * kPerThread; ++id) {
        auto result = futures[static_cast<std::size_t>(id)].get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        expectBitIdentical(result->output,
                           expected[static_cast<std::size_t>(id)]);
    }

    const EngineStats stats = (*engine)->stats();
    EXPECT_EQ(stats.submitted, kThreads * kPerThread);
    EXPECT_EQ(stats.completed, kThreads * kPerThread);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_GE(stats.batches, 1);
    EXPECT_LE(stats.p50QueueMillis, stats.p95QueueMillis);
    EXPECT_LE(stats.p95QueueMillis, stats.maxQueueMillis);
    EXPECT_GE(stats.avgBatchSize, 1.0);

    // The JSON stats surface parses back: aggregate + per-tenant
    // sections plus the chip-utilization summary.
    auto parsed = parseJson((*engine)->statsJson());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ((*parsed)["aggregate"]["completed"].asInt(),
              kThreads * kPerThread);
    EXPECT_EQ((*parsed)["tenants"][Engine::kDefaultModel]["completed"]
                  .asInt(),
              kThreads * kPerThread);
    EXPECT_GT((*parsed)["utilization"]["pe"]["used"].asInt(), 0);
}

TEST(Engine, ShutdownDrainsQueuedRequestsAndRejectsNewOnes)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    EngineOptions options;
    options.workerThreads = 1; // one worker so requests genuinely queue
    options.maxBatch = 2;
    options.queueDepth = 64;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok());

    constexpr int kQueued = 24;
    std::vector<std::future<StatusOr<InferenceResult>>> futures;
    for (int i = 0; i < kQueued; ++i)
        futures.push_back((*engine)->submit(probeInput()));

    // Shut down immediately: everything already queued must still be
    // served (drain semantics), nothing may hang or be dropped.
    EXPECT_TRUE((*engine)->shutdown().ok());
    int completed = 0;
    for (auto &f : futures) {
        auto result = f.get();
        ASSERT_TRUE(result.ok()) << result.status().toString();
        ++completed;
    }
    EXPECT_EQ(completed, kQueued);
    EXPECT_EQ((*engine)->stats().completed, kQueued);

    // Post-shutdown submits fail fast with Unavailable.
    auto rejected = (*engine)->submit(probeInput()).get();
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::Unavailable);
    EXPECT_EQ((*engine)->stats().rejected, 1);

    // Idempotent: a second shutdown (and the destructor) are no-ops
    // that return the same drain status.
    EXPECT_TRUE((*engine)->shutdown().ok());
}

TEST(CompiledModel, DerivedArtifactsAreBuiltOnceAndShared)
{
    // The functional lowering (calibration) and the execution plan are
    // cached per artifact: executors, tenants and copies of the model
    // all share one instance instead of re-deriving per construction.
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto synth_a = model->functionalSynthesis();
    auto synth_b = model->functionalSynthesis();
    ASSERT_TRUE(synth_a.ok() && synth_b.ok());
    EXPECT_EQ(synth_a->get(), synth_b->get());

    auto plan_a = model->executionPlan();
    ASSERT_TRUE(plan_a.ok());
    EXPECT_EQ(plan_a->get(), model->executionPlan()->get());

    // A copy of the model shares the same cache.
    CompiledModel copy(*model);
    auto synth_c = copy.functionalSynthesis();
    ASSERT_TRUE(synth_c.ok());
    EXPECT_EQ(synth_a->get(), synth_c->get());

    // And the failure is cached as data too: an unservable graph keeps
    // returning InvalidArgument without recalibrating.
    GraphBuilder b({1, 8, 8});
    b.conv(2, 3, 1, 0).relu().avgPool(2, 2).flatten().fc(4);
    Graph g = b.build();
    Rng rng(5);
    randomizeWeights(g, rng);
    Pipeline p(g);
    auto unservable = p.compile();
    ASSERT_TRUE(unservable.ok());
    CompiledModel outside = std::move(unservable).value();
    EXPECT_FALSE(outside.functionalSynthesis().ok());
    EXPECT_EQ(outside.functionalSynthesis().status().code(),
              StatusCode::InvalidArgument);
}

TEST(Engine, SpikingBackendServesQuantizedOutputs)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    EngineOptions options;
    options.workerThreads = 2;
    options.execution = ExecutionConfig{ExecutorKind::Spiking};
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    auto spiking = (*engine)->infer(probeInput());
    ASSERT_TRUE(spiking.ok()) << spiking.status().toString();
    EXPECT_EQ(spiking->output.shape(), model->outputShape());

    // The count-domain output approximates the (relu'd) float
    // reference within the 6-bit quantization budget.
    const Tensor reference =
        relu(runGraphFinal(model->graph(), probeInput()));
    double max_ref = 0.0, max_err = 0.0;
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
        max_ref = std::max(max_ref,
                           static_cast<double>(reference[i]));
        max_err = std::max(
            max_err, std::abs(static_cast<double>(reference[i]) -
                              spiking->output[i]));
    }
    EXPECT_LT(max_err, std::max(0.35, 0.5 * max_ref));
}

// ------------------------------------------------------- ExecutionConfig

TEST(ExecutionConfig, StampSurvivesSaveLoadAndDefaultsToPlannedFp32)
{
    Pipeline p(smallCnn());
    const ExecutionConfig stamped{ExecutorKind::Planned,
                                  PrecisionMode::Int8,
                                  KernelIsa::Scalar};
    auto compiled = p.compile(stamped);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    EXPECT_EQ(compiled->executionConfig(), stamped);

    const std::string path = "/tmp/fpsa_test_exec_config.json";
    ASSERT_TRUE(compiled->save(path).ok());
    auto loaded = CompiledModel::load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded->executionConfig(), stamped);

    // A plain compile() stamps the defaults.
    EXPECT_EQ(compileSmallCnn().executionConfig(), ExecutionConfig{});
}

TEST(Engine, StatsExposeResolvedExecutionPerTenant)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto engine = Engine::create(model);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();

    auto stats = (*engine)->modelStats(Engine::kDefaultModel);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats->executor, "planned");
    EXPECT_EQ(stats->precision, "fp32");
    // The surfaced ISA is what actually dispatches, never "auto".
    EXPECT_FALSE(stats->kernelIsa.empty());
    EXPECT_NE(stats->kernelIsa, "auto");
    KernelIsa surfaced;
    ASSERT_TRUE(parseKernelIsa(stats->kernelIsa, surfaced));
    EXPECT_EQ(surfaced, resolveKernelIsa(KernelIsa::Auto));

    // The aggregate scope spans (potentially mixed) tenants and does
    // not claim one config; the JSON bundle carries the tenant's.
    EXPECT_TRUE((*engine)->stats().executor.empty());
    const std::string json = (*engine)->statsJson();
    EXPECT_NE(json.find("\"execution\""), std::string::npos);
    EXPECT_NE(json.find("\"kernelIsa\""), std::string::npos);
}

TEST(Engine, ModelStampAndTenantOverrideSelectPrecision)
{
    // The stamped config is honored when nobody overrides...
    Pipeline p(smallCnn());
    auto stamped_model = p.compile(ExecutionConfig{
        ExecutorKind::Planned, PrecisionMode::Int8, KernelIsa::Scalar});
    ASSERT_TRUE(stamped_model.ok());
    auto engine = Engine::create(std::make_shared<CompiledModel>(
        std::move(stamped_model).value()));
    ASSERT_TRUE(engine.ok());
    auto stats = (*engine)->modelStats(Engine::kDefaultModel);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->precision, "int8");
    EXPECT_EQ(stats->kernelIsa, "scalar");
    ASSERT_TRUE((*engine)->infer(probeInput()).ok());

    // ...and one model serves two tenants at different precisions.
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());
    auto shared = Engine::create(ChipCapacity::unlimited());
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE((*shared)->loadModel("accurate", model).ok());
    TenantOptions quantized;
    quantized.execution = ExecutionConfig{
        ExecutorKind::Planned, PrecisionMode::Int8, KernelIsa::Auto};
    ASSERT_TRUE((*shared)->loadModel("fast", model, quantized).ok());

    EXPECT_EQ((*shared)->modelStats("accurate")->precision, "fp32");
    EXPECT_EQ((*shared)->modelStats("fast")->precision, "int8");

    auto fp32 = (*shared)->infer("accurate", probeInput());
    auto int8 = (*shared)->infer("fast", probeInput());
    ASSERT_TRUE(fp32.ok() && int8.ok());
    // Quantized serving approximates fp32 within a loose budget.
    double err2 = 0.0, ref2 = 0.0;
    for (std::int64_t i = 0; i < fp32->output.numel(); ++i) {
        const double d = int8->output[i] - fp32->output[i];
        err2 += d * d;
        ref2 += static_cast<double>(fp32->output[i]) *
                fp32->output[i];
    }
    EXPECT_LT(std::sqrt(err2), 0.15 * std::max(1e-9, std::sqrt(ref2)));
}

TEST(Engine, DeprecatedExecutorKnobsStillResolve)
{
    auto model = std::make_shared<CompiledModel>(compileSmallCnn());

    // The pre-ExecutionConfig surface keeps working (shims override
    // only the backend).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    EngineOptions options;
    options.executor = ExecutorKind::Reference;
    auto engine = Engine::create(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().toString();
    EXPECT_EQ((*engine)->modelStats(Engine::kDefaultModel)->executor,
              "reference");

    auto multi = Engine::create(ChipCapacity::unlimited());
    ASSERT_TRUE(multi.ok());
    ASSERT_TRUE(
        (*multi)->loadModel("ref", model, ExecutorKind::Reference)
            .ok());
    EXPECT_EQ((*multi)->modelStats("ref")->executor, "reference");

    auto direct = makeExecutor(ExecutorKind::Planned, model);
#pragma GCC diagnostic pop
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ((*direct)->info().executor, ExecutorKind::Planned);
    expectBitIdentical((*direct)->run(probeInput()).value(),
                       plannedGroundTruth(model, probeInput()));
}

} // namespace
} // namespace fpsa
