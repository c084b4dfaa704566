/**
 * @file
 * Tests for the serializable sweep-job API: canonical JSON round
 * trips, golden pinned content hashes (a serialization change is a
 * result-store format break and must fail here first), CellKey
 * ordering against Table-1 order, and spec validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/cell_key.hh"
#include "analysis/job_spec.hh"
#include "analysis/sweep.hh"
#include "workload/app_profile.hh"

using namespace gllc;

namespace
{

/** A spec with every field off its default. */
SweepJobSpec
sampleSpec()
{
    SweepJobSpec spec;
    spec.policies = {"DRRIP+UCD", "GSPC+UCD"};
    spec.frames = {{"3DMarkVAGT1", 0},
                   {"3DMarkVAGT1", 1},
                   {"BioShock", 2}};
    spec.scaleLinear = 8;
    spec.scatterPages = false;
    spec.llcBytes = 4ull << 20;
    spec.characterize = true;
    spec.collectDramTrace = true;
    spec.threads = 3;
    spec.frameWindow = 6;
    spec.progress = true;
    spec.retries = 5;
    spec.backoffMs = 7;
    spec.cellTimeoutMs = 9000;
    spec.checkpoint = "/tmp/j.jsonl";
    spec.resume = true;
    return spec;
}

} // namespace

TEST(SweepJobSpec, JsonRoundTripIsIdentity)
{
    const SweepJobSpec spec = sampleSpec();
    const std::string json = spec.toJson();
    Result<SweepJobSpec> back = parseSweepJobSpec(json);
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back.value(), spec);
    // Canonical serialization: re-serializing the parsed spec
    // reproduces the exact bytes.
    EXPECT_EQ(back.value().toJson(), json);
}

TEST(SweepJobSpec, ParserAcceptsAnyFieldOrderAndWhitespace)
{
    const std::string shuffled =
        "{ \"llc_bytes\": 8388608,\n"
        "  \"frames\": [ {\"frame\": 1, \"app\": \"DMC\"} ],\n"
        "  \"scale\": {\"scatter_pages\": true, \"linear\": 4},\n"
        "  \"policies\": [\"DRRIP+UCD\"],\n"
        "  \"gllc_sweep_job\": 1 }";
    Result<SweepJobSpec> spec = parseSweepJobSpec(shuffled);
    ASSERT_TRUE(spec.ok()) << spec.error().toString();
    EXPECT_EQ(spec.value().frames.size(), 1u);
    EXPECT_EQ(spec.value().frames[0].app, "DMC");
    EXPECT_EQ(spec.value().frames[0].frameIndex, 1u);
    // Execution knobs keep struct defaults when absent.
    EXPECT_EQ(spec.value().retries, 2u);
    EXPECT_EQ(spec.value().backoffMs, 25u);
}

TEST(SweepJobSpec, UnknownKeysAreRejected)
{
    SweepJobSpec spec = sampleSpec();
    std::string json = spec.toJson();
    json.pop_back();
    json += ",\"retrees\":3}";  // misspelled knob must not default
    Result<SweepJobSpec> back = parseSweepJobSpec(json);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, ErrorCode::InvalidArgument);
}

TEST(SweepJobSpec, OutOfRangeU32FieldsAreRejected)
{
    // 2^32 truncated to u32 is 0 — a silently different identity.
    // Every u32 field must reject overflow instead of wrapping.
    const char *overflowing[] = {
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":4294967296}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576}",
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4294967296,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576}",
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576,\"retries\":4294967296}",
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576,\"cell_timeout_ms\":4294967296}",
    };
    for (const char *json : overflowing) {
        Result<SweepJobSpec> spec = parseSweepJobSpec(json);
        ASSERT_FALSE(spec.ok()) << json;
        EXPECT_EQ(spec.error().code, ErrorCode::InvalidArgument);
    }

    // The u32 boundary itself still parses.
    Result<SweepJobSpec> edge = parseSweepJobSpec(
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":4294967295}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576}");
    ASSERT_TRUE(edge.ok()) << edge.error().toString();
    EXPECT_EQ(edge.value().frames[0].frameIndex, 4294967295u);
}

TEST(SweepJobSpec, DuplicateKeysAreRejected)
{
    // A repeated array key would concatenate both arrays...
    Result<SweepJobSpec> arrays = parseSweepJobSpec(
        "{\"gllc_sweep_job\":1,"
        "\"policies\":[\"DRRIP+UCD\"],\"policies\":[\"GSPC+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576}");
    ASSERT_FALSE(arrays.ok());
    EXPECT_EQ(arrays.error().code, ErrorCode::InvalidArgument);

    // ...and a repeated scalar key would be last-wins; both must
    // fail the strictness bar instead of parsing ambiguously.
    Result<SweepJobSpec> scalars = parseSweepJobSpec(
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576,\"llc_bytes\":2097152}");
    ASSERT_FALSE(scalars.ok());
    EXPECT_EQ(scalars.error().code, ErrorCode::InvalidArgument);
}

TEST(SweepJobSpec, MissingVersionIsBadMagic)
{
    Result<SweepJobSpec> spec =
        parseSweepJobSpec("{\"policies\":[\"DRRIP\"]}");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, ErrorCode::BadMagic);
}

TEST(SweepJobSpec, FutureVersionIsBadVersion)
{
    Result<SweepJobSpec> spec =
        parseSweepJobSpec("{\"gllc_sweep_job\":999}");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, ErrorCode::BadVersion);
}

TEST(SweepJobSpec, GarbageIsCorrupt)
{
    Result<SweepJobSpec> spec = parseSweepJobSpec("{\"unterminated");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, ErrorCode::Corrupt);
}

/**
 * Golden hashes.  These values are pinned on purpose: contentHash()
 * keys the service's result store and traceHash() its trace
 * identity, so any change to the canonical serialization (field
 * order, key spelling, version) silently orphans every stored
 * result.  If this test fails, you changed the format: bump
 * SweepJobSpec::kVersion and re-pin.
 */
TEST(SweepJobSpec, GoldenContentHashesArePinned)
{
    const SweepJobSpec spec = sampleSpec();
    EXPECT_EQ(spec.contentHash(), UINT64_C(0x434509dd29f7485d));
    EXPECT_EQ(spec.traceHash(), UINT64_C(0xa94cfa79eb367088));
}

TEST(SweepJobSpec, ContentHashCoversIdentityOnly)
{
    const SweepJobSpec base = sampleSpec();
    SweepJobSpec tweaked = base;
    tweaked.threads = 99;
    tweaked.retries = 0;
    tweaked.checkpoint = "/elsewhere";
    tweaked.progress = !base.progress;
    EXPECT_EQ(tweaked.contentHash(), base.contentHash());
    EXPECT_EQ(tweaked.traceHash(), base.traceHash());

    SweepJobSpec different = base;
    different.llcBytes *= 2;
    EXPECT_NE(different.contentHash(), base.contentHash());
    // ... but the LLC size does not change which traces render.
    EXPECT_EQ(different.traceHash(), base.traceHash());

    SweepJobSpec rescaled = base;
    rescaled.scaleLinear *= 2;
    EXPECT_NE(rescaled.contentHash(), base.contentHash());
    EXPECT_NE(rescaled.traceHash(), base.traceHash());

    // A declared output is part of what a job computes, so it is
    // part of the result-store key; the traces stay the same.
    SweepJobSpec undeclared = base;
    undeclared.characterize = false;
    EXPECT_NE(undeclared.contentHash(), base.contentHash());
    EXPECT_EQ(undeclared.traceHash(), base.traceHash());
}

TEST(SweepJobSpec, VersionOneSpecParsesAsCharacterized)
{
    // Version 1 characterized every cell, so its jobs still do.
    const std::string v1 =
        "{\"gllc_sweep_job\":1,\"policies\":[\"DRRIP+UCD\"],"
        "\"frames\":[{\"app\":\"DMC\",\"frame\":0}],"
        "\"scale\":{\"linear\":4,\"scatter_pages\":true},"
        "\"llc_bytes\":1048576}";
    Result<SweepJobSpec> spec = parseSweepJobSpec(v1);
    ASSERT_TRUE(spec.ok()) << spec.error().toString();
    EXPECT_TRUE(spec.value().characterize);
    // Re-serialized, it is a version 2 spec that declares it.
    EXPECT_NE(spec.value().toJson().find(
                  "\"gllc_sweep_job\":2,"),
              std::string::npos);
    EXPECT_NE(spec.value().toJson().find("\"characterize\":true"),
              std::string::npos);

    // The key is version 2's: a version 1 document cannot carry it,
    // and a version 2 document must.
    std::string v1_declared = v1;
    v1_declared.insert(v1.size() - 1, ",\"characterize\":false");
    EXPECT_FALSE(parseSweepJobSpec(v1_declared).ok());
    std::string v2_undeclared = v1;
    v2_undeclared.replace(v1.find(":1,"), 3, ":2,");
    EXPECT_FALSE(parseSweepJobSpec(v2_undeclared).ok());
    std::string v2 = v1_declared;
    v2.replace(v2.find(":1,"), 3, ":2,");
    ASSERT_TRUE(parseSweepJobSpec(v2).ok());
    EXPECT_FALSE(parseSweepJobSpec(v2).value().characterize);
}

TEST(SweepJobSpec, ValidateRejectsUnknownNames)
{
    SweepJobSpec spec = sampleSpec();
    spec.policies.push_back("NoSuchPolicy");
    EXPECT_FALSE(spec.validate().ok());

    SweepJobSpec bad_app = sampleSpec();
    bad_app.frames.push_back({"NoSuchApp", 0});
    EXPECT_FALSE(bad_app.validate().ok());

    EXPECT_TRUE(sampleSpec().validate().ok());
}

TEST(SweepJobSpec, ValidateRejectsUnbuildableLlcSizes)
{
    // At scale 8 the LLC shrinks 64x: 9 MB leaves 36 sets per bank.
    SweepJobSpec spec = sampleSpec();
    spec.llcBytes = 9ull << 20;
    Result<Unit> valid = spec.validate();
    ASSERT_FALSE(valid.ok());
    EXPECT_EQ(valid.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(valid.error().context.find("powers of two"),
              std::string::npos)
        << valid.error().toString();

    // Every power-of-two size builds, including the ones the 64 KiB
    // floor lifts.
    for (unsigned shift = 16; shift <= 26; ++shift) {
        spec.llcBytes = 1ull << shift;
        EXPECT_TRUE(spec.validate().ok()) << spec.llcBytes;
    }

    // The same size is buildable or not depending on the scale.
    spec.llcBytes = 12ull << 20;
    spec.scaleLinear = 1;
    EXPECT_FALSE(spec.validate().ok());

    // A scale whose square overflows the pixel scale is refused.
    spec.llcBytes = 8ull << 20;
    spec.scaleLinear = 0x10000;
    EXPECT_FALSE(spec.validate().ok());
}

TEST(SweepJobSpec, ResolveRoundTripsThroughFromSpec)
{
    const AppProfile &app = paperApps().front();
    const SweepJobSpec spec =
        SweepConfig()
            .policies({"DRRIP+UCD"})
            .frames({{&app, 0}})
            .scale({8, true})
            .threads(2)
            .retries(1)
            .backoffMs(3)
            .resolve();
    EXPECT_EQ(SweepConfig::fromSpec(spec).resolve(), spec);
}

TEST(SweepJobSpec, FromSpecIgnoresTheEnvironment)
{
    // fromSpec() runs the spec it is given, whatever the sweep
    // knobs in the environment say, also where a field holds its
    // "off" value: no checkpoint, a default frame window, no retries.
    const AppProfile &app = paperApps().front();
    SweepJobSpec spec;
    spec.policies = {"NRU"};
    spec.frames = {{app.name, 1}};
    spec.checkpoint = "";
    spec.frameWindow = 0;
    spec.retries = 0;
    ::setenv("GLLC_CHECKPOINT", "/tmp/env-only.jsonl", 1);
    ::setenv("GLLC_FRAME_WINDOW", "3", 1);
    ::setenv("GLLC_CELL_RETRIES", "7", 1);
    const SweepJobSpec round_trip = SweepConfig::fromSpec(spec).resolve();
    ::unsetenv("GLLC_CHECKPOINT");
    ::unsetenv("GLLC_FRAME_WINDOW");
    ::unsetenv("GLLC_CELL_RETRIES");
    EXPECT_EQ(round_trip, spec) << round_trip.toJson();
}

TEST(CellKey, OrderFollowsTableOne)
{
    // Table-1 order is paperApps() order, not lexicographic:
    // BioShock precedes AssnCreed nowhere in the alphabet, but
    // "3DMarkVAGT2" precedes "AssnCreed" in both; use apps whose
    // table and lexicographic orders disagree.
    const std::vector<AppProfile> &apps = paperApps();
    ASSERT_GE(apps.size(), 6u);
    // "Civilization" (index 5) < "DMC" (index 4) alphabetically,
    // but the table ranks DMC first.
    const CellKey dmc{"DMC", 0, "DRRIP"};
    const CellKey civ{"Civilization", 0, "DRRIP"};
    EXPECT_LT(dmc, civ);
    EXPECT_FALSE(civ < dmc);

    // Within an app: frames ascend, then policies.
    const CellKey f0{"DMC", 0, "GSPC"};
    const CellKey f1{"DMC", 1, "DRRIP"};
    EXPECT_LT(f0, f1);
    const CellKey p_a{"DMC", 0, "AAA"};
    const CellKey p_b{"DMC", 0, "BBB"};
    EXPECT_LT(p_a, p_b);

    // Unknown apps rank after every table app, ordered by name.
    const CellKey unknown{"ZZZCustomApp", 0, "DRRIP"};
    const CellKey last_table{apps.back().name, 99, "ZZZ"};
    EXPECT_LT(last_table, unknown);
}

TEST(CellKey, SortingMatchesPaperAppOrder)
{
    std::vector<CellKey> keys;
    for (auto it = paperApps().rbegin(); it != paperApps().rend();
         ++it)
        keys.push_back({it->name, 0, "DRRIP"});
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(keys[i].app, paperApps()[i].name);
}

TEST(CellKey, HashAndEqualityAgree)
{
    const CellKey a{"DMC", 3, "DRRIP"};
    const CellKey b{"DMC", 3, "DRRIP"};
    const CellKey c{"DMC", 4, "DRRIP"};
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a, c);
    EXPECT_NE(a.hash(), c.hash());
    EXPECT_EQ(a.toString(), "DMC frame 3 DRRIP");
}
