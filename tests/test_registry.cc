/**
 * @file
 * Prefetcher-registry tests: canonical spec normalization (idempotent,
 * invariant under option order / alias spelling / default elision, and
 * reflected one-to-one in the cell-key hashes the caches address by),
 * schema-validation fatalities for every registered scheme (unknown
 * options, malformed numbers, bad enum values, misshapen flags), and
 * campaign-level dedupe of equivalently spelled cells.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/spec.hh"
#include "common/types.hh"
#include "core/gaze.hh"
#include "harness/cell_key.hh"
#include "harness/runner.hh"
#include "prefetchers/factory.hh"
#include "prefetchers/registry.hh"
#include "workloads/suites.hh"

namespace gaze
{
namespace
{

/**
 * A legal, non-default value for @p os, or "" when the option is a
 * flag (which is spelled bare). Keeps the generated-spec sweeps
 * schema-driven: a new option on any scheme is exercised without
 * touching this file.
 */
std::string
nonDefaultValue(const OptionSchema &os)
{
    if (os.type == OptionType::Flag)
        return "";
    if (os.type == OptionType::Enum) {
        for (const auto &v : os.enumValues)
            if (v != os.enumDefault)
                return v;
        ADD_FAILURE() << "enum option '" << os.name
                      << "' has no non-default value";
        return os.enumDefault;
    }
    for (uint64_t c :
         {uint64_t(256), uint64_t(512), os.min, os.max, os.min + 1}) {
        if (c < os.min || c > os.max || c == os.uintDefault)
            continue;
        if (os.pow2 && c != 0 && !isPowerOfTwo(c))
            continue;
        return std::to_string(c);
    }
    ADD_FAILURE() << "uint option '" << os.name
                  << "' has no usable non-default candidate";
    return std::to_string(os.uintDefault);
}

/**
 * A deliberately ugly spelling of @p d with every option set to a
 * non-default value: reverse declaration order, an alias instead of
 * the primary name when one exists, and leading zeros on numbers.
 */
std::string
uglySpelling(const PrefetcherDescriptor &d)
{
    std::string spec = d.aliases.empty() ? d.name : d.aliases.front();
    for (auto it = d.options.rbegin(); it != d.options.rend(); ++it) {
        std::string v = nonDefaultValue(*it);
        if (v.empty())
            spec += ":" + it->name;
        else if (it->type == OptionType::Uint)
            spec += ":" + it->name + "=0" + v; // leading zero
        else
            spec += ":" + it->name + "=" + v;
    }
    return spec;
}

std::string
cellTextFor(const std::string &spec)
{
    RunConfig cfg;
    cfg.warmupInstr = 1000;
    cfg.simInstr = 1000;
    std::vector<WorkloadDef> mix{findWorkload("mcf")};
    return canonicalCellText(cfg, pfSpecAt(spec, "l1"), mix);
}

// ---- enumeration ----------------------------------------------------

TEST(Registry, EnumeratesEverySchemeSorted)
{
    auto descs = PrefetcherRegistry::instance().all();
    std::vector<std::string> names;
    for (const auto *d : descs)
        names.push_back(d->name);

    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names, (std::vector<std::string>{
                         "bingo", "dspatch", "gaze", "ip_stride",
                         "ipcp", "pmp", "sms", "spp", "spp_ppf",
                         "vberti"}));

    // knownPrefetcherSpecs() is derived from the registry, never a
    // parallel hand-list.
    EXPECT_EQ(knownPrefetcherSpecs(), names);
}

TEST(Registry, AliasesResolveToTheSameDescriptor)
{
    const auto &reg = PrefetcherRegistry::instance();
    EXPECT_EQ(reg.find("berti"), reg.find("vberti"));
    ASSERT_NE(reg.find("berti"), nullptr);
    EXPECT_EQ(reg.find("warp_drive"), nullptr);
}

TEST(Registry, EverySchemeDeclaresDocAndBuilds)
{
    for (const auto *d : PrefetcherRegistry::instance().all()) {
        EXPECT_FALSE(d->doc.empty()) << d->name;
        auto pf = resolvePrefetcherSpec(d->name).build();
        ASSERT_NE(pf, nullptr) << d->name;
        EXPECT_GT(pf->storageBits(), 0u) << d->name;
        for (const auto &os : d->options)
            EXPECT_FALSE(os.doc.empty()) << d->name << ":" << os.name;
    }
}

// ---- canonicalization ----------------------------------------------

TEST(Canonical, PrimaryNamesAreFixpoints)
{
    for (const auto *d : PrefetcherRegistry::instance().all())
        EXPECT_EQ(canonicalPrefetcherSpec(d->name), d->name);
    EXPECT_EQ(canonicalPrefetcherSpec("none"), "none");
    EXPECT_EQ(canonicalPrefetcherSpec(""), "none");
}

TEST(Canonical, IdempotentOverGeneratedSpecsForEveryScheme)
{
    for (const auto *d : PrefetcherRegistry::instance().all()) {
        std::string ugly = uglySpelling(*d);
        std::string canon = canonicalPrefetcherSpec(ugly);
        EXPECT_EQ(canonicalPrefetcherSpec(canon), canon) << ugly;
        // Canonical text always leads with the primary name.
        EXPECT_EQ(canon.compare(0, d->name.size(), d->name), 0)
            << ugly << " -> " << canon;
        // Both spellings build the same configuration.
        auto from_ugly = makePrefetcher(ugly);
        auto from_canon = makePrefetcher(canon);
        ASSERT_NE(from_ugly, nullptr) << ugly;
        EXPECT_EQ(from_ugly->name(), from_canon->name()) << ugly;
        EXPECT_EQ(from_ugly->storageBits(), from_canon->storageBits())
            << ugly;
    }
}

TEST(Canonical, OptionOrderDoesNotMatter)
{
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:region=2048:n=1"),
              canonicalPrefetcherSpec("gaze:n=1:region=2048"));
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:n=1:region=2048"),
              "gaze:n=1:region=2048");
    EXPECT_EQ(canonicalPrefetcherSpec("sms:phtsets=64:scheme=offset"),
              canonicalPrefetcherSpec("sms:scheme=offset:phtsets=64"));
}

TEST(Canonical, AliasAndNumberSpellingsNormalize)
{
    EXPECT_EQ(canonicalPrefetcherSpec("berti"), "vberti");
    EXPECT_EQ(canonicalPrefetcherSpec("berti:oracle"),
              "vberti:oracle");
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:n=01"), "gaze:n=1");
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:region=0002048"),
              "gaze:region=2048");
}

TEST(Canonical, SchemaDefaultsAreElided)
{
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:region=4096"), "gaze");
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:n=2:region=4096"), "gaze");
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:phtsets=0:phtways=0"),
              "gaze");
    EXPECT_EQ(canonicalPrefetcherSpec("sms:scheme=pc+offset"), "sms");
    EXPECT_EQ(canonicalPrefetcherSpec("bingo:phtways=16:phtsets=1024"),
              "bingo");
}

TEST(Canonical, AutoGeometrySentinelStaysValueDriven)
{
    // "gaze:n=3" relies on the 0 = auto sentinel: canonical form
    // keeps no pht options, and the build picks the 256-entry
    // fully-associative table the paper uses for n >= 3.
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:n=3"), "gaze:n=3");
    auto pf = makePrefetcher(canonicalPrefetcherSpec("gaze:n=3"));
    ASSERT_NE(pf, nullptr);
    // An explicit geometry survives canonicalization (64 != auto 0).
    EXPECT_EQ(canonicalPrefetcherSpec("gaze:n=3:phtsets=64"),
              "gaze:n=3:phtsets=64");
}

TEST(Canonical, GazeAutoGeometryPinsTheBuiltTables)
{
    auto geom = [](const char *spec) {
        auto pf = makePrefetcher(spec);
        auto *g = dynamic_cast<GazePrefetcher *>(pf.get());
        EXPECT_NE(g, nullptr) << spec;
        return std::make_pair(g->config().phtSets,
                              g->config().phtWays);
    };
    // Auto geometry: the n >= 3 fully-associative table.
    EXPECT_EQ(geom("gaze:n=3"), std::make_pair(1u, 256u));
    EXPECT_EQ(geom("gaze"), std::make_pair(64u, 4u));
    // An explicit phtsets opts out of the fully-associative shape
    // (matching the pre-registry factory): 64x4, not 64x256.
    EXPECT_EQ(geom("gaze:n=3:phtsets=64"), std::make_pair(64u, 4u));
    // Explicit ways are honored (the old factory silently discarded
    // them for n >= 3).
    EXPECT_EQ(geom("gaze:n=3:phtways=8"), std::make_pair(1u, 8u));
    EXPECT_EQ(geom("gaze:phtsets=32"), std::make_pair(32u, 4u));
}

// ---- canonical identity flows into the cache keys -------------------

TEST(CanonicalCellKey, EquivalentSpellingsShareHash)
{
    // The ISSUE acceptance criterion, verbatim.
    std::string a = cellTextFor("gaze:region=2048:n=1");
    std::string b = cellTextFor("gaze:n=1:region=2048");
    EXPECT_EQ(a, b);
    EXPECT_EQ(cellHash(a), cellHash(b));

    EXPECT_EQ(cellTextFor("berti"), cellTextFor("vberti"));
    EXPECT_EQ(cellTextFor("gaze:region=4096"), cellTextFor("gaze"));
}

TEST(CanonicalCellKey, DifferentVariantsKeepDistinctHashes)
{
    EXPECT_NE(cellHash(cellTextFor("gaze")),
              cellHash(cellTextFor("gaze:n=1")));
    EXPECT_NE(cellHash(cellTextFor("vberti")),
              cellHash(cellTextFor("vberti:oracle")));
}

// ---- validation fatalities ------------------------------------------

using RegistryDeath = ::testing::Test;

TEST(RegistryDeath, UnknownOptionIsFatalForEveryScheme)
{
    for (const auto *d : PrefetcherRegistry::instance().all()) {
        EXPECT_DEATH(
            (void)makePrefetcher(d->name
                                 + ":definitely_not_an_option=1"),
            "unknown option")
            << d->name;
        EXPECT_DEATH((void)makePrefetcher(d->name + ":typo"),
                     "unknown option")
            << d->name;
    }
    // The exact silent-ignore bug from the ISSUE: this used to build
    // a default Gaze.
    EXPECT_DEATH((void)makePrefetcher("gaze:typo=1"),
                 "unknown option 'typo' in spec 'gaze:typo=1'");
}

TEST(RegistryDeath, MalformedNumbersAreFatal)
{
    // This used to parse as 0 via unchecked strtoull.
    EXPECT_DEATH((void)makePrefetcher("gaze:n=abc"),
                 "wants an unsigned integer, got 'abc' in spec "
                 "'gaze:n=abc'");
    EXPECT_DEATH((void)makePrefetcher("gaze:n="),
                 "wants an unsigned integer");
    EXPECT_DEATH((void)makePrefetcher("gaze:n"), "needs =N");
    EXPECT_DEATH((void)makePrefetcher("gaze:region=-4096"),
                 "wants an unsigned integer");
    EXPECT_DEATH((void)makePrefetcher("gaze:n=1e3"),
                 "wants an unsigned integer");
    EXPECT_DEATH(
        (void)makePrefetcher("gaze:n=99999999999999999999999"),
        "wants an unsigned integer");
}

TEST(RegistryDeath, OutOfRangeAndShapeViolationsAreFatal)
{
    EXPECT_DEATH((void)makePrefetcher("gaze:n=9"), "out of range");
    EXPECT_DEATH((void)makePrefetcher("gaze:n=0"), "out of range");
    EXPECT_DEATH((void)makePrefetcher("gaze:region=64"),
                 "out of range");
    EXPECT_DEATH((void)makePrefetcher("gaze:region=3000"),
                 "must be a power of two");
}

TEST(RegistryDeath, EnumViolationsAreFatalForEveryEnumOption)
{
    for (const auto *d : PrefetcherRegistry::instance().all())
        for (const auto &os : d->options) {
            if (os.type != OptionType::Enum)
                continue;
            EXPECT_DEATH((void)makePrefetcher(
                             d->name + ":" + os.name + "=bogus_value"),
                         "unknown value 'bogus_value'")
                << d->name << ":" << os.name;
            EXPECT_DEATH((void)makePrefetcher(d->name + ":" + os.name),
                         "needs =VALUE")
                << d->name << ":" << os.name;
        }
}

TEST(RegistryDeath, FlagsTakeNoValueForEveryFlagOption)
{
    for (const auto *d : PrefetcherRegistry::instance().all())
        for (const auto &os : d->options) {
            if (os.type != OptionType::Flag)
                continue;
            EXPECT_DEATH((void)makePrefetcher(d->name + ":" + os.name
                                              + "=1"),
                         "takes no value")
                << d->name << ":" << os.name;
        }
}

TEST(RegistryDeath, DuplicateOptionsAreFatal)
{
    EXPECT_DEATH((void)makePrefetcher("gaze:n=1:n=2"), "given twice");
    EXPECT_DEATH((void)makePrefetcher("gaze:nostream:nostream"),
                 "given twice");
    // A default-valued first occurrence is elided from the canonical
    // form but must still arm the duplicate check: these specs are
    // contradictions, not spellings of the second value.
    EXPECT_DEATH((void)makePrefetcher("gaze:n=2:n=4"), "given twice");
    EXPECT_DEATH(
        (void)makePrefetcher("sms:scheme=pc+offset:scheme=pc"),
        "given twice");
}

TEST(RegistryDeath, UnknownSchemeNamesTheSpecAndTheRegistry)
{
    EXPECT_DEATH((void)makePrefetcher("warp_drive:x=1"),
                 "unknown prefetcher 'warp_drive' in spec "
                 "'warp_drive:x=1'");
}

// ---- introspection --------------------------------------------------

TEST(Introspection, JsonRenderIsParseableAndComplete)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(renderPrefetcherList(true), &doc, &error))
        << error;

    const JsonValue *schemes = doc.find("prefetchers");
    ASSERT_NE(schemes, nullptr);
    auto descs = PrefetcherRegistry::instance().all();
    ASSERT_EQ(schemes->items().size(), descs.size());

    for (size_t i = 0; i < descs.size(); ++i) {
        const JsonValue &s = schemes->items()[i];
        const JsonValue *name = s.find("name");
        ASSERT_NE(name, nullptr);
        EXPECT_EQ(name->asString(), descs[i]->name);
        const JsonValue *canonical = s.find("canonical");
        ASSERT_NE(canonical, nullptr);
        EXPECT_EQ(canonical->asString(), descs[i]->name);
        const JsonValue *storage = s.find("storage_kib");
        ASSERT_NE(storage, nullptr);
        EXPECT_GT(storage->asNumber(), 0.0);
        const JsonValue *options = s.find("options");
        ASSERT_NE(options, nullptr);
        EXPECT_EQ(options->items().size(), descs[i]->options.size());
    }
}

TEST(Introspection, TextRenderNamesEverySchemeAndOption)
{
    std::string text = renderPrefetcherList(false);
    for (const auto *d : PrefetcherRegistry::instance().all()) {
        EXPECT_NE(text.find(d->name), std::string::npos) << d->name;
        for (const auto &os : d->options)
            EXPECT_NE(text.find(os.name), std::string::npos)
                << d->name << ":" << os.name;
        for (const auto &a : d->aliases)
            EXPECT_NE(text.find("alias: " + a), std::string::npos);
    }
}

// ---- campaign-level spelling invariance -----------------------------

JsonValue
parseDoc(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    return doc;
}

TEST(CampaignCanonical, EquivalentSpellingsDedupeToOneCell)
{
    CampaignSpec spec = parseCampaignSpec(parseDoc(
        R"({"name":"dedupe",)"
        R"("prefetchers":["gaze:n=1:region=2048",)"
        R"("gaze:region=2048:n=1","berti"],)"
        R"("workloads":["mcf"],"warmup":1000,"sim":1000})"));

    // Axis canonicalized and deduped, first spelling wins the slot.
    ASSERT_EQ(spec.prefetchers.size(), 2u);
    EXPECT_EQ(spec.prefetchers[0].label(), "gaze:n=1:region=2048");
    EXPECT_EQ(spec.prefetchers[1].label(), "vberti");

    Campaign c = expandCampaign(spec);
    ASSERT_EQ(c.cells.size(), 2u);
    EXPECT_EQ(c.baselines.size(), 1u);
    EXPECT_EQ(c.cells[0].pf.l1, "gaze:n=1:region=2048");
    EXPECT_EQ(c.cells[1].pf.l1, "vberti");
    EXPECT_NE(c.cells[0].hash, c.cells[1].hash);
}

TEST(CampaignCanonical, RespelledSpecExpandsToIdenticalCells)
{
    const char *a_text =
        R"({"name":"x","prefetchers":["gaze:region=2048:n=1"],)"
        R"("workloads":["mcf"],"warmup":1000,"sim":1000})";
    const char *b_text =
        R"({"name":"x","prefetchers":["gaze:n=1:region=0002048"],)"
        R"("workloads":["mcf"],"warmup":1000,"sim":1000})";

    Campaign a = expandCampaign(parseCampaignSpec(parseDoc(a_text)));
    Campaign b = expandCampaign(parseCampaignSpec(parseDoc(b_text)));
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].key, b.cells[i].key);
        EXPECT_EQ(a.cells[i].hash, b.cells[i].hash);
    }
}

} // namespace
} // namespace gaze
