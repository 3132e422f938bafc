// Reproduces the paper's evaluation from one survey of the paper-calibrated
// ecosystem, as the paper builds it from one stored scan campaign. Sections
// print in EXPERIMENTS.md order: §4.1 + Table 1, Table 2, the §4.2 CDS
// findings, Figure 1 (§4.3), and Table 3 + §4.4.
//
// Scale: measured counts are rescaled back to full-population equivalents
// (measured / scale) before comparison, so the printed numbers are directly
// comparable with the paper's. Control with DNSBOOT_SCALE_DENOM (default
// 4000, i.e. a 71.9 k-zone population).
#include <cstdio>
#include <string>
#include <utility>

#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "bench_json.hpp"
#include "ecosystem/builder.hpp"

namespace {

using namespace dnsboot;

struct SurveyFixture {
  double scale = bench::scale_from_env();
  net::SimNetwork network{20250705};
  ecosystem::Ecosystem eco;
  analysis::SurveyRunResult result;

  // Rescale a measured count to the full population for paper comparison.
  double rescale(std::uint64_t measured) const {
    return static_cast<double>(measured) / scale;
  }
};

SurveyFixture run_paper_survey() {
  SurveyFixture fixture;
  fixture.network.set_default_link(
      net::LinkModel{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0});

  ecosystem::EcosystemConfig config;
  config.scale = fixture.scale;
  ecosystem::EcosystemBuilder builder(fixture.network, config);
  fixture.eco = builder.build();
  std::printf("# population: %zu zones (scale 1/%.0f), %llu signed\n",
              fixture.eco.scan_targets.size(), 1.0 / fixture.scale,
              static_cast<unsigned long long>(fixture.eco.zones_signed));

  fixture.result = analysis::run_survey(
      fixture.network, fixture.eco.hints, fixture.eco.scan_targets,
      fixture.eco.ns_domain_to_operator, fixture.eco.now);
  return fixture;
}

// "label | paper | measured (rescaled) | raw" row printing. Small error
// classes are injected with a floor of 1 zone, so their rescaled value
// overstates at coarse scales — the raw count is printed alongside.
void print_header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-44s %15s %18s %10s\n", "row", "paper", "measured(x scale)",
              "raw");
}

void print_row(const SurveyFixture& fixture, const std::string& label,
               double paper, std::uint64_t measured_raw) {
  std::printf("%-44s %15s %18s\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(static_cast<std::uint64_t>(
                               fixture.rescale(measured_raw) + 0.5))
                  .c_str());
}

void print_row_raw(const SurveyFixture& fixture, const std::string& label,
                   double paper, std::uint64_t measured_raw) {
  std::printf("%-44s %15s %18s %10llu\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(static_cast<std::uint64_t>(
                               fixture.rescale(measured_raw) + 0.5))
                  .c_str(),
              static_cast<unsigned long long>(measured_raw));
}

void print_pct_row(const std::string& label, double paper_pct,
                   double measured_pct) {
  std::printf("%-44s %14.2f%% %17.2f%%\n", label.c_str(), paper_pct,
              measured_pct);
}

// Paper Table 1 reference values: domains, unsigned, secured, invalid,
// islands (the paper has no with_cds column here).
const analysis::OperatorRow kPaperTable1[] = {
    {"GoDaddy", 56446359, 56326752, 107550, 8550, 3507, 0},
    {"Cloudflare", 27790208, 26541985, 799377, 16694, 432152, 0},
    {"Namecheap", 10252586, 10119070, 126601, 5300, 1615, 0},
    {"GoogleDomains", 9931131, 5197647, 4496848, 109499, 127137, 0},
    {"WIX", 7318524, 5989947, 74423, 2954, 1151200, 0},
    {"Hostinger", 6561661, 6556301, 5360, 0, 0, 0},
    {"AfterNIC", 5360163, 5349129, 11034, 0, 0, 0},
    {"HiChina", 4637997, 4628516, 9481, 0, 0, 0},
    {"AWS", 3698499, 3653373, 30005, 4345, 10776, 0},
    {"GName", 3558801, 3556082, 1145, 1002, 572, 0},
    {"NameBright", 3516303, 3515548, 73, 680, 2, 0},
    {"SquareSpace", 2735515, 2710040, 24278, 1023, 174, 0},
    {"OVH", 2662864, 1469425, 1169714, 2839, 20886, 0},
    {"Sedo", 2340028, 2336383, 3645, 0, 0, 0},
    {"BlueHost", 1976091, 1960552, 13188, 136, 1215, 0},
    {"NameSilo", 1847474, 1846251, 1223, 0, 0, 0},
    {"Alibaba", 1570903, 1564980, 2675, 1216, 2032, 0},
    {"DynaDot", 1552892, 1552431, 461, 0, 0, 0},
    {"Wordpress", 1549730, 1541499, 7824, 347, 60, 0},
    {"SiteGround", 1535176, 1533874, 1302, 0, 0, 0},
};

void print_operator_row(const analysis::OperatorRow& row, double scale) {
  std::printf("%-16s %12.0f %12.0f %11.0f %10.0f %10.0f\n", row.name.c_str(),
              row.domains / scale, row.unsigned_zones / scale,
              row.secured / scale, row.invalid / scale, row.islands / scale);
}

// §4.1 headline + Table 1: DNSSEC status per top-20 DNS operator.
void print_table1(const SurveyFixture& fixture) {
  const analysis::Survey& s = fixture.result.survey;

  print_header("§4.1 headline (of 287.6 M scanned)");
  print_row(fixture, "zones scanned", 287600000, s.total);
  print_row(fixture, "without DNSSEC", 268100000, s.unsigned_zones);
  print_row(fixture, "correctly signed (secured)", 15786327, s.secured);
  print_row(fixture, "failing validation (invalid)", 640048, s.invalid);
  print_row(fixture, "secure islands", 3122912, s.islands);

  double total = static_cast<double>(s.total - s.unresolved);
  print_header("§4.1 rates");
  print_pct_row("unsigned", 93.2, 100.0 * s.unsigned_zones / total);
  print_pct_row("secured", 5.5, 100.0 * s.secured / total);
  print_pct_row("invalid", 0.2, 100.0 * s.invalid / total);
  print_pct_row("islands", 1.1, 100.0 * s.islands / total);

  std::printf("\n== Table 1: top 20 operators (measured, rescaled) ==\n");
  std::printf("%-16s %12s %12s %11s %10s %10s\n", "operator", "domains",
              "unsigned", "secured", "invalid", "islands");
  for (const auto& row : fixture.result.top_by_domains) {
    print_operator_row(row, fixture.scale);
  }
  std::printf("\n== Table 1: paper reference ==\n");
  for (const auto& row : kPaperTable1) print_operator_row(row, 1.0);

  std::printf("\n# scan cost: %llu queries, %llu datagrams, %.2f simulated "
              "days, %.1f MiB on the wire\n",
              static_cast<unsigned long long>(
                  fixture.result.engine_stats.queries),
              static_cast<unsigned long long>(fixture.result.datagrams),
              fixture.result.simulated_duration / (86400.0 * net::kSecond),
              fixture.result.bytes_on_wire / (1024.0 * 1024.0));
}

struct Table2Row {
  const char* name;
  double cds;
  double pct;
  bool swiss;
};
// Paper Table 2. Note: the paper's WIX (1 326 336) and Google Domains
// (4 624 357) CDS counts are irreconcilable with the Figure 1 funnel (see
// DESIGN.md); the generator follows the funnel, so those two rows measure
// lower by construction.
const Table2Row kPaperTable2[] = {
    {"GoogleDomains", 4624357, 46.6, false},
    {"WIX", 1326336, 18.1, false},
    {"Cloudflare", 1232531, 4.4, false},
    {"SimplyCom", 218590, 96.8, false},
    {"GoDaddy", 111078, 0.2, false},
    {"cyon", 60981, 48.1, true},
    {"Gransy", 54690, 98.9, false},
    {"METANET", 54522, 70.5, true},
    {"Porkbun", 34989, 3.2, false},
    {"netim", 34586, 40.9, false},
    {"Gandi", 34486, 3.6, false},
    {"Webland", 26416, 76.3, true},
    {"greench", 24674, 16.8, true},
    {"WebHouse", 18766, 60.0, false},
    {"Va3Hosting", 13066, 98.3, false},
    {"HostFactory", 12897, 68.4, true},
    {"INWX", 11303, 7.8, false},
    {"OpenProvider", 10312, 79.5, false},
    {"AWARDIC", 8898, 99.9, false},
    {"ThreeDNS", 8112, 75.6, false},
};

bool is_swiss(const std::string& name) {
  for (const auto& row : kPaperTable2) {
    if (name == row.name) return row.swiss;
  }
  return false;
}

// Table 2: the top-20 operators publishing CDS.
void print_table2(const SurveyFixture& fixture) {
  const analysis::Survey& s = fixture.result.survey;

  print_header("§4.2 headline");
  print_row(fixture, "zones with CDS RRs", 10500000, s.with_cds);
  double total = static_cast<double>(s.total - s.unresolved);
  print_pct_row("share of all zones", 3.7, 100.0 * s.with_cds / total);

  std::printf("\n== Table 2: top 20 by CDS (measured, rescaled) ==\n");
  std::printf("%-16s %12s %8s %6s\n", "operator", "dom.w.CDS", "pct", "CH");
  int swiss_count = 0;
  for (const auto& row : fixture.result.top_by_cds) {
    double pct = row.domains > 0
                     ? 100.0 * static_cast<double>(row.with_cds) /
                           static_cast<double>(row.domains)
                     : 0.0;
    bool swiss = is_swiss(row.name);
    if (swiss) ++swiss_count;
    std::printf("%-16s %12.0f %7.1f%% %6s\n", row.name.c_str(),
                fixture.rescale(row.with_cds), pct, swiss ? "CH" : "");
  }
  std::printf("# Swiss operators in measured top 20: %d (paper: 6)\n",
              swiss_count);

  std::printf("\n== Table 2: paper reference ==\n");
  std::printf("%-16s %12s %8s %6s\n", "operator", "dom.w.CDS", "pct", "CH");
  for (const auto& row : kPaperTable2) {
    std::printf("%-16s %12.0f %7.1f%% %6s\n", row.name, row.cds, row.pct,
                row.swiss ? "CH" : "");
  }
}

// §4.2 CDS error taxonomy: CDS in unsigned zones, delete requests in every zone state, nameservers
// failing CDS queries, and the consistency/correctness findings for
// bootstrappable islands.
void print_cds_findings(const SurveyFixture& fixture) {
  const analysis::Survey& s = fixture.result.survey;

  print_header("CDS in unsigned zones");
  print_row_raw(fixture, "unsigned zones with CDS RRs", 2854,
                s.unsigned_with_cds);
  print_row_raw(fixture, "...of which delete requests", 16,
                s.unsigned_with_cds_delete);

  print_header("CDS delete requests (RFC 8078 §4)");
  print_row(fixture, "signed zones with delete CDS (ignored)", 3289,
            s.secured_with_cds_delete);
  print_row(fixture, "secure islands with delete CDS", 165500,
            s.island_with_cds_delete);

  print_header("Lack of support for CDS (pre-RFC 3597 servers)");
  print_row(fixture, "zones whose NSes fail CDS queries", 7600000,
            s.cds_query_failed);
  double total = static_cast<double>(s.total - s.unresolved);
  print_pct_row("share of all zones", 2.6,
                100.0 * s.cds_query_failed / total);

  print_header("CDS correctness among secure islands with CDS");
  print_row(fixture, "islands with CDS RRs", 468000, s.island_with_cds);
  print_row(fixture, "consistent across NSes (paper: of 179.9k)", 179400,
            s.island_cds_consistent);
  print_row_raw(fixture, "inconsistent across NSes", 5333,
                s.island_cds_inconsistent);
  print_row_raw(fixture, "...of which multi-operator setups", 4637,
                s.island_cds_inconsistent_multi_op);
  print_row_raw(fixture, "CDS matching no DNSKEY", 5,
                s.cds_no_matching_dnskey);
  print_row_raw(fixture, "invalid RRSIG over CDS", 3, s.cds_invalid_rrsig);
  std::printf(
      "# note: the paper reports 179.9k islands-with-CDS in §4.2 but 468k\n"
      "# across the §4.3 funnel branches; the generator follows the funnel\n"
      "# (Figure 1), so 'consistent' here is the funnel-sized complement.\n");

  if (s.island_with_cds > 0) {
    print_pct_row("consistency rate", 99.7,
                  100.0 * s.island_cds_consistent /
                      static_cast<double>(s.island_with_cds));
  }
  std::printf("\n# multi-operator zones in population: %llu\n",
              static_cast<unsigned long long>(s.multi_operator_zones));
}

// Figure 1: the bootstrapping-possibility funnel (§4.3).
void print_figure1(const SurveyFixture& fixture) {
  const analysis::Survey& s = fixture.result.survey;

  auto funnel = [&](analysis::BootstrapEligibility e) -> std::uint64_t {
    auto it = s.funnel.find(e);
    return it == s.funnel.end() ? 0 : it->second;
  };
  using E = analysis::BootstrapEligibility;

  print_header("Figure 1 funnel");
  print_row(fixture, "scanned", 287600000, s.total);
  print_row(fixture, "with DNSSEC", 19500993,
            s.secured + s.invalid + s.islands);
  print_row(fixture, "already secured", 15786327, funnel(E::kAlreadySecured));
  print_row(fixture, "invalid DNSSEC", 640048, funnel(E::kInvalidDnssec));
  print_row(fixture, "islands without CDS", 2654912,
            funnel(E::kIslandWithoutCds));
  print_row(fixture, "islands, CDS delete", 165010,
            funnel(E::kIslandCdsDelete));
  print_row_raw(fixture, "islands, invalid CDS", 5,
                funnel(E::kIslandCdsMismatch));
  print_row(fixture, "possible to bootstrap", 302985,
            funnel(E::kBootstrappable));

  double total = static_cast<double>(s.total - s.unresolved);
  print_header("key shares");
  print_pct_row("cannot benefit from AB", 100.0 * 271600000 / 287600000,
                100.0 *
                    (total - funnel(E::kAlreadySecured) -
                     funnel(E::kBootstrappable)) /
                    total);
  print_pct_row("possible to bootstrap", 100.0 * 302985 / 287600000,
                100.0 * funnel(E::kBootstrappable) / total);

  std::printf("\n# Key takeaway check (§4.3): the AB deployment space is ~0.1%%\n"
              "# of the population; the barrier is DNSSEC adoption itself.\n");
}

// Paper Table 3 columns, in AbColumn field order.
const std::pair<const char*, analysis::AbColumn> kPaperTable3[] = {
    {"Cloudflare", {1229568, 799169, 160268, 159503, 765, 270131, 34, 270097}},
    {"deSEC", {7314, 5439, 20, 0, 20, 1855, 155, 1700}},
    {"Glauca", {290, 233, 8, 7, 1, 49, 1, 48}},
    {"Others", {279, 113, 143, 20, 123, 23, 18, 5}},
    {"Total", {1237451, 804954, 160439, 159530, 909, 272058, 207, 271828}},
};

void print_column(const char* name, double scale_factor,
                  const analysis::AbColumn& c) {
  std::printf("%-14s %10.0f %10.0f %9.0f %9.0f %8.0f %10.0f %8.0f %10.0f\n",
              name, c.with_signal / scale_factor,
              c.already_secured / scale_factor,
              c.cannot_bootstrap / scale_factor,
              c.deletion_request / scale_factor,
              c.invalid_dnssec / scale_factor, c.potential / scale_factor,
              c.signal_incorrect / scale_factor,
              c.signal_correct / scale_factor);
}

// Table 3 + §4.4: RFC 9615 signal publication and correctness.
void print_table3(const SurveyFixture& fixture) {
  const analysis::Survey& s = fixture.result.survey;

  const char* header = "%-14s %10s %10s %9s %9s %8s %10s %8s %10s\n";
  std::printf("\n== Table 3 (measured, rescaled) ==\n");
  std::printf(header, "operator", "w.signal", "secured", "cannot", "delete",
              "invalid", "potential", "incorr.", "correct");
  // The named AB operators first, everything else folded into Others.
  analysis::AbColumn others;
  for (const auto& [name, column] : s.ab_by_operator) {
    if (name == "Cloudflare" || name == "deSEC" || name == "Glauca") {
      print_column(name.c_str(), fixture.scale, column);
    } else {
      others += column;
    }
  }
  print_column("Others", fixture.scale, others);
  print_column("Total", fixture.scale, s.ab_total);

  std::printf("\n== Table 3 (paper reference) ==\n");
  std::printf(header, "operator", "w.signal", "secured", "cannot", "delete",
              "invalid", "potential", "incorr.", "correct");
  for (const auto& [name, c] : kPaperTable3) print_column(name, 1.0, c);

  print_header("§4.4 signal violations among potential zones");
  print_row_raw(fixture, "signaling RRs not under every NS", 206,
                s.violation_not_under_every_ns);
  print_row_raw(fixture, "zone cut in the signaling path", 1,
                s.violation_zone_cut);
  print_row_raw(fixture, "signaling zone DNSSEC invalid", 1,
                s.violation_chain_invalid);
  print_row_raw(fixture, "signaling NSes disagree / stale trees", 32,
                s.violation_mismatch + s.violation_inconsistent);

  if (s.ab_total.potential > 0) {
    print_header("headline");
    print_pct_row("signal correct among potential", 99.9,
                  100.0 * s.ab_total.signal_correct /
                      static_cast<double>(s.ab_total.potential));
  }
  std::printf("\n# Key takeaway check (§4.4): only 3 DNS operators implement\n"
              "# AB at scale, but those that do implement it correctly for\n"
              "# ~99.9%% of eligible zones.\n");
}

}  // namespace

int main() {
  std::printf("bench_paper — §4.1 + Table 1, Table 2, §4.2 CDS findings, "
              "Figure 1, Table 3 + §4.4\n");
  const SurveyFixture fixture = run_paper_survey();
  print_table1(fixture);
  print_table2(fixture);
  print_cds_findings(fixture);
  print_figure1(fixture);
  print_table3(fixture);
  return 0;
}
