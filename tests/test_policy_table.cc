/**
 * @file
 * Unit tests for the named policy registry.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/policy_table.hh"
#include "analysis/policy_types.hh"

using namespace gllc;

TEST(PolicyTable, AllNamesInstantiate)
{
    for (const std::string &name : allPolicyNames()) {
        const PolicySpec spec = policySpec(name);
        EXPECT_EQ(spec.name, name);
        ASSERT_TRUE(spec.factory != nullptr) << name;
        auto policy = spec.factory();
        ASSERT_NE(policy, nullptr) << name;
        policy->configure(128, 16);
    }
}

TEST(PolicyTable, InstanceNamesMatchRegistry)
{
    for (const std::string &name : allPolicyNames()) {
        if (name == "DRRIP" || name == "GS-DRRIP" || name == "SRRIP") {
            // Registry short names map to the width-suffixed
            // instance names.
            continue;
        }
        const PolicySpec spec = policySpec(name);
        EXPECT_EQ(spec.factory()->name(), name);
    }
    EXPECT_EQ(policySpec("DRRIP").factory()->name(), "DRRIP-2");
    EXPECT_EQ(policySpec("GS-DRRIP").factory()->name(), "GS-DRRIP-2");
}

TEST(PolicyTable, UcdSuffixSetsFlag)
{
    const PolicySpec plain = policySpec("GSPC");
    EXPECT_FALSE(plain.uncachedDisplay);
    const PolicySpec ucd = policySpec("GSPC+UCD");
    EXPECT_TRUE(ucd.uncachedDisplay);
    EXPECT_EQ(ucd.name, "GSPC+UCD");
    EXPECT_EQ(ucd.factory()->name(), "GSPC");
}

TEST(PolicyTable, UcdComposesWithEveryBase)
{
    for (const std::string &name : allPolicyNames()) {
        const PolicySpec spec = policySpec(name + "+UCD");
        EXPECT_TRUE(spec.uncachedDisplay) << name;
    }
}

TEST(PolicyTable, BeladyNeedsOracle)
{
    // The oracle requirement is a trait of the policy class, and the
    // registry's Belady entries build that class.
    for (const char *name : {"Belady", "Belady+UCD"}) {
        EXPECT_NE(dynamic_cast<BeladyPolicy *>(
                      policySpec(name).factory().get()),
                  nullptr)
            << name;
    }
    EXPECT_TRUE(BeladyPolicy::kNeedsOracle);
    EXPECT_FALSE(DrripPolicy::kNeedsOracle);
    EXPECT_FALSE(GspcFamilyPolicy::kNeedsOracle);
    EXPECT_FALSE(ReplacementPolicy::kNeedsOracle);
}

TEST(PolicyTable, ThresholdSweepForm)
{
    for (const unsigned t : {2u, 4u, 8u, 16u}) {
        const std::string name =
            "GSPZTC(t=" + std::to_string(t) + ")";
        const PolicySpec spec = policySpec(name);
        auto policy = spec.factory();
        EXPECT_EQ(policy->name(), "GSPZTC");
    }
}

TEST(PolicyTable, SpecCarriesMachineReadableMetadata)
{
    const PolicySpec drrip = policySpec("DRRIP");
    EXPECT_EQ(drrip.baseName, "DRRIP");
    EXPECT_EQ(drrip.threshold, 0u);

    const PolicySpec swept = policySpec("GSPZTC(t=4)+UCD");
    EXPECT_EQ(swept.baseName, "GSPZTC");
    EXPECT_EQ(swept.threshold, 4u);
    EXPECT_TRUE(swept.uncachedDisplay);
}

TEST(PolicyTable, AllPolicySpecsEnumeratesVariants)
{
    const std::vector<PolicySpec> specs = allPolicySpecs();
    const std::size_t expected =
        2 * (allPolicyNames().size() + gspztcSweepThresholds().size());
    EXPECT_EQ(specs.size(), expected);

    std::set<std::string> names;
    for (const PolicySpec &spec : specs) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate " << spec.name;
        ASSERT_TRUE(spec.factory != nullptr) << spec.name;
        EXPECT_FALSE(spec.baseName.empty()) << spec.name;
    }

    // Every base appears plain and +UCD...
    for (const std::string &name : allPolicyNames()) {
        EXPECT_TRUE(names.count(name)) << name;
        EXPECT_TRUE(names.count(name + "+UCD")) << name;
    }
    // ...and the GSPZTC threshold sweep points are enumerated with
    // their parameters parsed out.
    for (const unsigned t : gspztcSweepThresholds()) {
        const std::string name =
            "GSPZTC(t=" + std::to_string(t) + ")";
        ASSERT_TRUE(names.count(name)) << name;
        for (const PolicySpec &spec : specs) {
            if (spec.name != name)
                continue;
            EXPECT_EQ(spec.baseName, "GSPZTC");
            EXPECT_EQ(spec.threshold, t);
            EXPECT_FALSE(spec.uncachedDisplay);
        }
    }
}

TEST(PolicyTableDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(policySpec("NotAPolicy"),
                ::testing::ExitedWithCode(1), "unknown policy");
}

TEST(PolicyTableDeath, MalformedThresholdIsFatal)
{
    EXPECT_EXIT(policySpec("GSPZTC(t=x)"),
                ::testing::ExitedWithCode(1), "unknown policy");
}
