// Analysis-layer tests: operator identification, trust context, and the
// ground-truth round trip — inject pathologies, scan, and assert the
// classifier recovers exactly what the generator planted.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/report_io.hpp"
#include "analysis/survey.hpp"
#include "ecosystem/builder.hpp"
#include "net/simnet.hpp"

namespace dnsboot::analysis {
namespace {

using ecosystem::EcosystemBuilder;
using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;
using ecosystem::ZoneState;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// --- OperatorIdentifier --------------------------------------------------------

TEST(OperatorId, SuffixMatching) {
  OperatorIdentifier id;
  id.add("ns.cloudflare.com", "Cloudflare");
  id.add("desec.io", "deSEC");
  EXPECT_EQ(id.identify(name_of("asa.ns.cloudflare.com.")), "Cloudflare");
  EXPECT_EQ(id.identify(name_of("ns1.desec.io.")), "deSEC");
  EXPECT_EQ(id.identify(name_of("ns1.example.net.")), kUnknownOperator);
  // Exact-domain NS also matches.
  EXPECT_EQ(id.identify(name_of("desec.io.")), "deSEC");
}

TEST(OperatorId, WhiteLabelAliasIsMoreSpecific) {
  OperatorIdentifier id;
  id.add("cloudflare.com", "Cloudflare");
  id.add("seized.gov", "Cloudflare");  // the paper's white-label example
  EXPECT_EQ(id.identify(name_of("ns1.seized.gov.")), "Cloudflare");
}

TEST(OperatorId, IdentifyAllDeduplicates) {
  OperatorIdentifier id;
  id.add("a.net", "A");
  id.add("b.net", "B");
  auto ops = id.identify_all({name_of("ns1.a.net."), name_of("ns2.a.net."),
                              name_of("ns1.b.net."), name_of("ns1.c.net."),
                              name_of("ns2.c.net.")});
  EXPECT_EQ(ops.size(), 3u);  // A, B, unknown
}

// --- end-to-end ground-truth round trip -----------------------------------------

OperatorProfile signal_operator() {
  OperatorProfile p;
  p.name = "OpSignal";
  p.ns_domains = {"opsignal.net"};
  p.tld = "net";
  p.customer_tld = "com";
  p.domains = 30;
  p.secured = 8;
  p.invalid = 3;
  p.islands = 6;
  p.cds_domains = 14;
  p.island_cds_fraction = 1.0;
  p.island_cds_delete_fraction = 1.0 / 3.0;  // 2 of 6 islands
  p.publishes_signal = true;
  p.signal_includes_delete = true;
  return p;
}

struct SurveyFixture {
  net::SimNetwork network{11};
  ecosystem::Ecosystem eco;
  SurveyRunResult result;
};

// Builds the world from `ops` and surveys it; `reverse_targets` scans the
// same targets in reverse order (eco.scan_targets holds the order scanned).
std::unique_ptr<SurveyFixture> run_world(std::vector<OperatorProfile> ops,
                                         bool reverse_targets = false) {
  auto fixture = std::make_unique<SurveyFixture>();
  fixture->network.set_default_link(
      net::LinkModel{2 * net::kMillisecond, net::kMillisecond, 0.0});
  EcosystemConfig config;
  config.scale = 1.0;
  config.operators = std::move(ops);
  config.inject_pathologies = false;
  EcosystemBuilder builder(fixture->network, config);
  fixture->eco = builder.build();
  if (reverse_targets) {
    std::reverse(fixture->eco.scan_targets.begin(),
                 fixture->eco.scan_targets.end());
  }
  SurveyRunOptions options;
  options.engine.per_server_qps = 5000;
  options.keep_reports = true;
  fixture->result = run_survey(fixture->network, fixture->eco.hints,
                               fixture->eco.scan_targets,
                               fixture->eco.ns_domain_to_operator,
                               fixture->eco.now, options);
  return fixture;
}

TEST(SurveyRoundTrip, HeadlineCountsMatchGroundTruth) {
  auto fixture = run_world({signal_operator()});
  const Survey& s = fixture->result.survey;
  std::uint64_t truth_secured = 0, truth_invalid = 0, truth_island = 0,
                truth_unsigned = 0;
  for (const auto& [zone, truth] : fixture->eco.truth) {
    switch (truth.state) {
      case ZoneState::kSecured: ++truth_secured; break;
      case ZoneState::kInvalid: ++truth_invalid; break;
      case ZoneState::kIsland: ++truth_island; break;
      case ZoneState::kUnsigned: ++truth_unsigned; break;
    }
  }
  EXPECT_EQ(s.total, fixture->eco.truth.size());
  EXPECT_EQ(s.unresolved, 0u);
  EXPECT_EQ(s.secured, truth_secured);
  EXPECT_EQ(s.invalid, truth_invalid);
  EXPECT_EQ(s.islands, truth_island);
  EXPECT_EQ(s.unsigned_zones, truth_unsigned);
}

TEST(SurveyRoundTrip, PerZoneStateMatchesTruth) {
  auto fixture = run_world({signal_operator()});
  for (const auto& report : fixture->result.reports) {
    const auto& truth = fixture->eco.truth.at(report.zone.canonical_text());
    SCOPED_TRACE(report.zone.to_text());
    switch (truth.state) {
      case ZoneState::kSecured:
        EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kSecure)
            << report.dnssec_reason;
        break;
      case ZoneState::kInvalid:
        EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kBogus);
        break;
      case ZoneState::kIsland:
        EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kSecureIsland);
        break;
      case ZoneState::kUnsigned:
        EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kUnsigned);
        break;
    }
    EXPECT_EQ(report.cds.present, truth.cds);
    if (truth.cds) {
      EXPECT_EQ(report.cds.delete_request, truth.cds_delete);
    }
    EXPECT_EQ(report.operator_name, truth.operator_name);
  }
}

// Reports come out in target order whatever order the scan completes in, and
// the aggregate does not depend on that order.
TEST(SurveyRoundTrip, ReportsFollowTargetOrder) {
  auto forward = run_world({signal_operator()});
  auto reversed = run_world({signal_operator()}, /*reverse_targets=*/true);
  const auto& targets = reversed->eco.scan_targets;
  const auto& reports = reversed->result.reports;
  ASSERT_EQ(reports.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(reports[i].zone.to_text(), targets[i].to_text()) << i;
  }
  EXPECT_EQ(survey_to_json(reversed->result), survey_to_json(forward->result));
}

TEST(SurveyRoundTrip, FunnelMatchesTruth) {
  auto fixture = run_world({signal_operator()});
  const Survey& s = fixture->result.survey;
  // 8 secured; 3 invalid; islands: 2 delete + 4 bootstrappable; 13 unsigned.
  auto funnel_of = [&](BootstrapEligibility e) {
    auto it = s.funnel.find(e);
    return it == s.funnel.end() ? 0ULL : it->second;
  };
  EXPECT_EQ(funnel_of(BootstrapEligibility::kAlreadySecured), 8u);
  EXPECT_EQ(funnel_of(BootstrapEligibility::kInvalidDnssec), 3u);
  EXPECT_EQ(funnel_of(BootstrapEligibility::kIslandCdsDelete), 2u);
  EXPECT_EQ(funnel_of(BootstrapEligibility::kBootstrappable), 4u);
  EXPECT_EQ(funnel_of(BootstrapEligibility::kUnsignedZone), 13u);
  EXPECT_EQ(funnel_of(BootstrapEligibility::kIslandWithoutCds), 0u);
}

TEST(SurveyRoundTrip, AbTableMatchesTruth) {
  auto fixture = run_world({signal_operator()});
  const Survey& s = fixture->result.survey;
  // Signal published for: 8 secured + 6 islands (incl. 2 delete) = 14.
  ASSERT_TRUE(s.ab_by_operator.count("OpSignal") > 0);
  const AbColumn& column = s.ab_by_operator.at("OpSignal");
  EXPECT_EQ(column.with_signal, 14u);
  EXPECT_EQ(column.already_secured, 8u);
  EXPECT_EQ(column.deletion_request, 2u);
  EXPECT_EQ(column.invalid_dnssec, 0u);
  EXPECT_EQ(column.potential, 4u);
  EXPECT_EQ(column.signal_correct, 4u);
  EXPECT_EQ(column.signal_incorrect, 0u);
}

TEST(SurveyRoundTrip, PathologiesAreDetected) {
  // The default paper world at micro scale, with pathology injection: every
  // error class must be observed at least once.
  net::SimNetwork network(13);
  network.set_default_link(
      net::LinkModel{2 * net::kMillisecond, net::kMillisecond, 0.0});
  EcosystemConfig config;
  config.scale = 1.0 / 100000;
  EcosystemBuilder builder(network, config);
  auto eco = builder.build();
  SurveyRunOptions options;
  options.engine.per_server_qps = 10000;
  auto result = run_survey(network, eco.hints, eco.scan_targets,
                           eco.ns_domain_to_operator, eco.now, options);
  const Survey& s = result.survey;

  EXPECT_GT(s.total, 2000u);
  EXPECT_GT(s.unsigned_zones, s.secured);  // unsigned dominates (93 %)
  EXPECT_GT(s.secured, 0u);
  EXPECT_GT(s.invalid, 0u);
  EXPECT_GT(s.islands, 0u);

  // §4.2 error classes.
  EXPECT_GT(s.cds_query_failed, 0u);          // legacy FORMERR servers
  EXPECT_GT(s.unsigned_with_cds, 0u);         // Canal Dominios
  EXPECT_GT(s.secured_with_cds_delete, 0u);
  EXPECT_GT(s.island_with_cds_delete, 0u);
  EXPECT_GT(s.island_cds_inconsistent, 0u);
  EXPECT_GT(s.island_cds_inconsistent_multi_op, 0u);
  EXPECT_GT(s.cds_no_matching_dnskey, 0u);
  EXPECT_GT(s.cds_invalid_rrsig, 0u);

  // §4.4 signal violations.
  EXPECT_GT(s.violation_not_under_every_ns, 0u);
  EXPECT_GT(s.violation_zone_cut, 0u);
  EXPECT_GT(s.ab_total.signal_correct, 0u);
  EXPECT_GT(s.ab_total.deletion_request, 0u);

  // Cloudflare publishes signal records at volume.
  ASSERT_TRUE(s.ab_by_operator.count("Cloudflare") > 0);
  EXPECT_GT(s.ab_by_operator.at("Cloudflare").with_signal, 0u);
}

TEST(SurveyRoundTrip, PoolSamplingEngages) {
  // Cloudflare-style pool: 12 endpoints, sampled down to 2 for ~95 %.
  OperatorProfile pool;
  pool.name = "PoolOp";
  pool.ns_domains = {"ns.pool.net"};
  pool.tld = "net";
  pool.customer_tld = "com";
  pool.anycast_pool = true;
  pool.addresses_per_ns = 3;
  pool.domains = 40;
  pool.secured = 5;
  auto fixture = run_world({pool});
  const Survey& s = fixture->result.survey;
  EXPECT_GT(s.pool_sampled_zones, 30u);
  EXPECT_LT(s.pool_sampled_zones, 40u);
  // Sampled zones query far fewer endpoints than exist.
  EXPECT_LT(s.endpoints_queried, s.endpoints_available / 2);
}

}  // namespace
}  // namespace dnsboot::analysis
