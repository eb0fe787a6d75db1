#include "sys/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/greedy.h"
#include "core/maid.h"
#include "core/normalize.h"
#include "core/pack_disks.h"
#include "core/pack_grouped.h"
#include "core/pack_segregated.h"
#include "core/random_alloc.h"
#include "core/sea.h"
#include "sys/fleet.h"
#include "sys/spec_grammar.h"
#include "sys/sweep.h"
#include "util/rng.h"

namespace spindown::sys {
namespace {

double parse_number(const std::string& s, const std::string& context) {
  return detail::parse_number(s, context, "ScenarioSpec");
}

std::uint64_t parse_unsigned(const std::string& s,
                             const std::string& context) {
  return detail::parse_unsigned(s, context, "ScenarioSpec");
}

std::vector<std::string> parse_call(const std::string& name,
                                    const std::string& head) {
  return detail::parse_call(name, head, "ScenarioSpec");
}

std::string correlation_name(workload::SizeCorrelation c) {
  switch (c) {
    case workload::SizeCorrelation::kInverse: return "inverse";
    case workload::SizeCorrelation::kIndependent: return "independent";
    case workload::SizeCorrelation::kDirect: return "direct";
  }
  throw std::logic_error{"CatalogSpec: unknown correlation"};
}

workload::SizeCorrelation parse_correlation(const std::string& s,
                                            const std::string& context) {
  if (s == "inverse") return workload::SizeCorrelation::kInverse;
  if (s == "independent") return workload::SizeCorrelation::kIndependent;
  if (s == "direct") return workload::SizeCorrelation::kDirect;
  throw std::invalid_argument{
      "ScenarioSpec: bad correlation '" + s + "' in " + context +
      " (want inverse|independent|direct)"};
}

util::Bytes parse_size(const std::string& s, const std::string& context) {
  const auto v = util::parse_bytes(s);
  if (!v.has_value()) {
    throw std::invalid_argument{"ScenarioSpec: bad size '" + s + "' in " +
                                context};
  }
  return *v;
}

/// Memo key for a catalog: the canonical spec string plus every
/// resolution-relevant field the grammar does *not* carry (programmatic
/// NerscSpec overrides), so two specs that would synthesize different
/// traces never share a cache entry.
std::string catalog_memo_key(const CatalogSpec& c) {
  std::string key = c.spec();
  if (c.kind == CatalogSpec::Kind::kNersc) {
    const auto& n = c.nersc;
    key += "|" + std::to_string(n.mean_size) + "|" +
           std::to_string(n.min_size) + "|" + std::to_string(n.max_size) +
           "|" + util::format_roundtrip(n.popularity_exponent) + "|" +
           util::format_roundtrip(n.batch_spacing_s) + "|" +
           (n.diurnal ? "d1" : "d0") + "|" +
           util::format_roundtrip(n.day_fraction) + "|" +
           util::format_roundtrip(n.night_intensity);
  }
  return key;
}

/// The DiskParams fields that shape a placement: capacity (size
/// normalization, MAID fill) and the service-time model (load
/// normalization).  Part of every mapping memo key, since params is a
/// programmatic (non-grammar) field.
std::string params_memo_key(const disk::DiskParams& p) {
  return std::to_string(p.capacity) + "|" +
         util::format_roundtrip(p.avg_seek_s) + "|" +
         util::format_roundtrip(p.avg_rotation_s) + "|" +
         util::format_roundtrip(p.transfer_bps);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

} // namespace

// ---------------------------------------------------------------- catalog

CatalogSpec CatalogSpec::table1(std::size_t n_files, std::uint64_t seed) {
  CatalogSpec c;
  c.synth = workload::SyntheticSpec::paper_table1();
  c.synth.n_files = n_files;
  c.seed = seed;
  return c;
}

CatalogSpec CatalogSpec::synthetic(const workload::SyntheticSpec& synth,
                                   std::uint64_t seed) {
  CatalogSpec c;
  c.synth = synth;
  c.seed = seed;
  return c;
}

CatalogSpec CatalogSpec::nersc_synth(const workload::NerscSpec& spec) {
  CatalogSpec c;
  c.kind = Kind::kNersc;
  c.nersc = spec;
  return c;
}

CatalogSpec CatalogSpec::trace(std::string path) {
  CatalogSpec c;
  c.kind = Kind::kTrace;
  c.path = std::move(path);
  return c;
}

std::string CatalogSpec::spec() const {
  switch (kind) {
    case Kind::kSynthetic: {
      const auto paper = workload::SyntheticSpec::paper_table1();
      const bool is_table1 = synth.zipf_exponent == paper.zipf_exponent &&
                             synth.max_size == paper.max_size &&
                             synth.correlation == paper.correlation;
      if (is_table1) {
        return "table1(" + std::to_string(synth.n_files) + "," +
               std::to_string(seed) + ")";
      }
      return "synth(" + std::to_string(synth.n_files) + "," +
             util::format_roundtrip(synth.zipf_exponent) + "," +
             util::format_bytes_spec(synth.max_size) + "," +
             correlation_name(synth.correlation) + "," + std::to_string(seed) +
             ")";
    }
    case Kind::kNersc: {
      const workload::NerscSpec d;
      std::string out = "nersc(" + std::to_string(nersc.n_files) + "," +
                        std::to_string(nersc.n_requests) + "," +
                        std::to_string(nersc.seed);
      // Trailing optionals, emitted up to the last non-default value.
      const std::vector<std::pair<bool, std::string>> optionals{
          {nersc.duration_s != d.duration_s,
           util::format_roundtrip(nersc.duration_s)},
          {nersc.batch_fraction != d.batch_fraction,
           util::format_roundtrip(nersc.batch_fraction)},
          {nersc.batch_min != d.batch_min, std::to_string(nersc.batch_min)},
          {nersc.batch_max != d.batch_max, std::to_string(nersc.batch_max)}};
      std::size_t last = 0;
      for (std::size_t i = 0; i < optionals.size(); ++i) {
        if (optionals[i].first) last = i + 1;
      }
      for (std::size_t i = 0; i < last; ++i) out += "," + optionals[i].second;
      return out + ")";
    }
    case Kind::kTrace: return "trace:" + path;
  }
  throw std::logic_error{"CatalogSpec: unknown kind"};
}

CatalogSpec CatalogSpec::parse(const std::string& name) {
  if (name.rfind("trace:", 0) == 0) {
    const std::string stem = name.substr(6);
    if (stem.empty()) {
      throw std::invalid_argument{
          "CatalogSpec: trace needs a CSV stem (trace:<path>)"};
    }
    return trace(stem);
  }
  if (name.rfind("table1", 0) == 0) {
    const auto args = parse_call(name, "table1");
    if (args.size() != 2) {
      throw std::invalid_argument{"CatalogSpec: want table1(n,seed), got '" +
                                  name + "'"};
    }
    return table1(parse_unsigned(args[0], name), parse_unsigned(args[1], name));
  }
  if (name.rfind("synth", 0) == 0) {
    const auto args = parse_call(name, "synth");
    if (args.size() != 5) {
      throw std::invalid_argument{
          "CatalogSpec: want synth(n,zipf,maxsize,corr,seed), got '" + name +
          "'"};
    }
    workload::SyntheticSpec s = workload::SyntheticSpec::paper_table1();
    s.n_files = parse_unsigned(args[0], name);
    s.zipf_exponent = parse_number(args[1], name);
    s.max_size = parse_size(args[2], name);
    s.correlation = parse_correlation(args[3], name);
    return synthetic(s, parse_unsigned(args[4], name));
  }
  if (name.rfind("nersc", 0) == 0) {
    const auto args = parse_call(name, "nersc");
    if (args.size() < 3 || args.size() > 7) {
      throw std::invalid_argument{
          "CatalogSpec: want nersc(files,requests,seed[,dur_s[,bfrac[,bmin"
          "[,bmax]]]]), got '" + name + "'"};
    }
    workload::NerscSpec s;
    s.n_files = parse_unsigned(args[0], name);
    s.n_requests = parse_unsigned(args[1], name);
    s.seed = parse_unsigned(args[2], name);
    if (args.size() > 3) s.duration_s = parse_number(args[3], name);
    if (args.size() > 4) s.batch_fraction = parse_number(args[4], name);
    if (args.size() > 5) s.batch_min = parse_unsigned(args[5], name);
    if (args.size() > 6) s.batch_max = parse_unsigned(args[6], name);
    return nersc_synth(s);
  }
  throw std::invalid_argument{
      "CatalogSpec: unknown catalog '" + name +
      "' (want table1(n,seed)|synth(n,zipf,max,corr,seed)|"
      "nersc(files,requests,seed,...)|trace:<stem>)"};
}

// -------------------------------------------------------------- placement

std::string PlacementSpec::spec() const {
  switch (kind) {
    case Kind::kPack: return "pack";
    case Kind::kGrouped: return "grouped:" + std::to_string(group_size);
    case Kind::kRandom: return "random";
    case Kind::kMaid: return "maid:" + std::to_string(cache_disks);
    case Kind::kSea: return "sea:" + util::format_roundtrip(hot_load_share);
    case Kind::kSegregated: return "seg:" + std::to_string(size_classes);
    case Kind::kFfd: return "ffd";
  }
  throw std::logic_error{"PlacementSpec: unknown kind"};
}

PlacementSpec PlacementSpec::parse(const std::string& name) {
  const auto colon = name.find(':');
  const std::string head = name.substr(0, colon);
  const bool has_arg = colon != std::string::npos && colon + 1 < name.size();
  const std::string arg = has_arg ? name.substr(colon + 1) : std::string{};
  const auto count_arg = [&](std::uint32_t fallback, std::uint32_t lo,
                             std::uint32_t hi) {
    if (!has_arg) return fallback;
    const auto v = parse_unsigned(arg, name);
    if (v < lo || v > hi) {
      throw std::invalid_argument{"PlacementSpec: count out of range in '" +
                                  name + "'"};
    }
    return static_cast<std::uint32_t>(v);
  };
  // Argument-less kinds must really be argument-less: "pack:4" is almost
  // certainly a mistyped "grouped:4", not a request for plain pack.
  const auto no_arg = [&] {
    if (colon != std::string::npos) {
      throw std::invalid_argument{"PlacementSpec: '" + head +
                                  "' takes no argument, got '" + name + "'"};
    }
  };
  if (head == "pack") {
    no_arg();
    return pack();
  }
  if (head == "grouped") return grouped(count_arg(4, 1, 1024));
  if (head == "random") {
    no_arg();
    return random();
  }
  if (head == "maid") return maid(count_arg(4, 1, 1024));
  if (head == "sea") {
    double share = 0.8;
    if (has_arg) {
      share = parse_number(arg, name);
      if (!(share > 0.0 && share <= 1.0)) {
        throw std::invalid_argument{
            "PlacementSpec: sea hot share must be in (0,1], got '" + name +
            "'"};
      }
    }
    return sea(share);
  }
  if (head == "seg") return segregated(count_arg(2, 1, 64));
  if (head == "ffd") {
    no_arg();
    return ffd();
  }
  throw std::invalid_argument{
      "PlacementSpec: unknown placement '" + name +
      "' (want pack|grouped:k|random|maid:c|sea:h|seg:k|ffd)"};
}

// --------------------------------------------------------------- scenario

namespace {

void apply_key(ScenarioSpec& s, const std::string& key,
               const std::string& value) {
  if (key == "label") {
    s.label = value;
  } else if (key == "catalog") {
    s.catalog = CatalogSpec::parse(value);
  } else if (key == "placement") {
    s.placement = PlacementSpec::parse(value);
  } else if (key == "load") {
    const double l = parse_number(value, "load=" + value);
    if (!(l > 0.0 && l <= 1.0)) {
      throw std::invalid_argument{
          "ScenarioSpec: load must be in (0,1], got '" + value + "'"};
    }
    s.load_fraction = l;
  } else if (key == "disks") {
    s.disks = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        parse_unsigned(value, "disks=" + value), 1'000'000));
  } else if (key == "policy") {
    s.policy = PolicySpec::parse(value);
  } else if (key == "sched" || key == "scheduler") {
    s.scheduler = SchedulerSpec::parse(value);
  } else if (key == "cache") {
    s.cache = CacheSpec::parse(value);
  } else if (key == "workload") {
    s.workload = WorkloadSpec::parse(value);
  } else if (key == "seed") {
    s.seed = parse_unsigned(value, "seed=" + value);
  } else if (key == "shards") {
    if (value == "auto") {
      s.shards = 0;
    } else {
      const auto n = parse_unsigned(value, "shards=" + value);
      if (n < 1 || n > 256) {
        throw std::invalid_argument{
            "ScenarioSpec: shards must be 'auto' or in [1, 256], got '" +
            value + "'"};
      }
      s.shards = static_cast<std::uint32_t>(n);
    }
  } else if (key == "obs") {
    s.obs = ObsSpec::parse(value);
  } else if (key == "replicas") {
    const auto k = parse_unsigned(value, "replicas=" + value);
    if (k < 1 || k > 16) {
      throw std::invalid_argument{
          "ScenarioSpec: replicas must be in [1, 16], got '" + value + "'"};
    }
    s.placement.replicas = static_cast<std::uint32_t>(k);
  } else if (key == "orch") {
    s.orch = OrchSpec::parse(value);
  } else {
    throw std::invalid_argument{
        "ScenarioSpec: unknown key '" + key +
        "' (want label|catalog|placement|replicas|load|disks|policy|sched|"
        "cache|workload|seed|shards|obs|orch)"};
  }
}

} // namespace

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec s;
  std::istringstream in{text};
  std::string token;
  bool any = false;
  while (in >> token) {
    any = true;
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument{"ScenarioSpec: expected key=value, got '" +
                                  token + "'"};
    }
    apply_key(s, token.substr(0, eq), token.substr(eq + 1));
  }
  if (!any) {
    throw std::invalid_argument{"ScenarioSpec: empty scenario string"};
  }
  return s;
}

std::string ScenarioSpec::spec() const {
  std::string out;
  if (!label.empty() && label.find_first_of(" \t\n") == std::string::npos) {
    out += "label=" + label + " ";
  }
  out += "catalog=" + catalog.spec();
  out += " placement=" + placement.spec();
  // Result-determining (redirection routes over the replica sets), but 1 —
  // no replication — is the overwhelmingly common case, so the key appears
  // only off-default and pre-orchestration canonical strings are unchanged.
  if (placement.replicas != 1) {
    out += " replicas=" + std::to_string(placement.replicas);
  }
  out += " load=" + util::format_roundtrip(load_fraction);
  out += " disks=" + std::to_string(disks);
  out += " policy=" + policy.spec();
  out += " sched=" + scheduler.spec();
  out += " cache=" + cache.spec();
  out += " workload=" + workload.spec();
  out += " seed=" + std::to_string(seed);
  // Emitted only off-default: shards is an execution knob, not part of the
  // result-determining identity (same results at any shard count), so the
  // canonical strings of all pre-fleet scenarios are unchanged.
  if (shards != 1) {
    out += " shards=";
    out += shards == 0 ? "auto" : std::to_string(shards);
  }
  // Same convention as shards: observability never changes results, so the
  // key appears only when something is enabled.
  if (obs.enabled()) out += " obs=" + obs.spec();
  // Orchestration IS result-determining, but "off" is the default and the
  // only value every pre-orchestration scenario carries.
  if (orch.enabled()) out += " orch=" + orch.spec();
  return out;
}

ScenarioSpec ScenarioSpec::with(const std::string& key,
                                const std::string& value) const {
  ScenarioSpec out = *this;
  apply_key(out, key, value);
  return out;
}

// ------------------------------------------------------------- resolution

const ScenarioCache::CatalogEntry& ScenarioCache::catalog_for(
    const ScenarioSpec& spec) {
  const std::string key = catalog_memo_key(spec.catalog);
  if (const auto it = catalogs_.find(key); it != catalogs_.end()) {
    return it->second;
  }
  CatalogEntry entry;
  switch (spec.catalog.kind) {
    case CatalogSpec::Kind::kSynthetic: {
      util::Rng rng{spec.catalog.seed};
      entry.catalog = std::make_shared<const workload::FileCatalog>(
          workload::generate_catalog(spec.catalog.synth, rng));
      break;
    }
    case CatalogSpec::Kind::kNersc: {
      auto trace = std::make_shared<const workload::Trace>(
          workload::synthesize_nersc(spec.catalog.nersc));
      entry.trace = trace;
      entry.catalog = std::shared_ptr<const workload::FileCatalog>(
          trace, &trace->catalog());
      break;
    }
    case CatalogSpec::Kind::kTrace: {
      // Reuse a trace the workload spec already loaded from the same stem.
      std::shared_ptr<const workload::Trace> trace;
      if (spec.workload.owned_trace != nullptr &&
          spec.workload.trace_path == spec.catalog.path) {
        trace = spec.workload.owned_trace;
      } else {
        trace = workload::Trace::load_shared(spec.catalog.path);
      }
      entry.trace = trace;
      entry.catalog = std::shared_ptr<const workload::FileCatalog>(
          trace, &trace->catalog());
      break;
    }
  }
  return catalogs_.emplace(key, std::move(entry)).first->second;
}

const ScenarioCache::MappingEntry& ScenarioCache::mapping_for(
    const ScenarioSpec& spec, const CatalogEntry& cat, double rate) {
  const auto& placement = spec.placement;
  std::string key = catalog_memo_key(spec.catalog) + "|" + placement.spec() +
                    "|" + params_memo_key(spec.params);

  core::LoadModel model;
  model.rate = rate;
  model.load_fraction = spec.load_fraction;
  model.disk = spec.params;

  // The memo key carries exactly the inputs the mapping depends on, so a
  // sweep over policies/thresholds/seeds reuses one packing per grid, and
  // (for size-only allocators) even the rate axis shares it.
  switch (placement.kind) {
    case PlacementSpec::Kind::kRandom:
      // Random placement ignores load entirely; the mapping depends only on
      // file sizes, the farm and the seed (plus, with disks=0, the packing
      // that sizes the farm — §5.1's "same number of disks as Pack_Disks").
      key += spec.disks > 0
                 ? "|disks=" + std::to_string(spec.disks)
                 : "|L=" + util::format_roundtrip(spec.load_fraction) +
                       "|R=" + util::format_roundtrip(rate);
      key += "|seed=" + std::to_string(spec.seed);
      break;
    case PlacementSpec::Kind::kMaid:
      key += "|disks=" + std::to_string(spec.disks);
      break;
    default:
      key += "|L=" + util::format_roundtrip(spec.load_fraction) +
             "|R=" + util::format_roundtrip(rate);
      break;
  }
  if (const auto it = mappings_.find(key); it != mappings_.end()) {
    return it->second;
  }

  MappingEntry entry;
  const auto from_assignment = [&entry](const core::Assignment& a) {
    entry.mapping =
        std::make_shared<const std::vector<std::uint32_t>>(a.disk_of);
    entry.alloc_disks = a.disk_count;
  };
  switch (placement.kind) {
    case PlacementSpec::Kind::kPack: {
      const auto items = core::normalize(*cat.catalog, model);
      core::PackDisks pack;
      from_assignment(pack.allocate(items));
      break;
    }
    case PlacementSpec::Kind::kGrouped: {
      const auto items = core::normalize(*cat.catalog, model);
      core::PackDisksGrouped pack{placement.group_size};
      from_assignment(pack.allocate(items));
      break;
    }
    case PlacementSpec::Kind::kSegregated: {
      const auto items = core::normalize(*cat.catalog, model);
      core::SegregatedPackDisks seg{placement.size_classes};
      from_assignment(seg.allocate(items));
      break;
    }
    case PlacementSpec::Kind::kFfd: {
      const auto items = core::normalize(*cat.catalog, model);
      core::FirstFitDecreasing ffd;
      from_assignment(ffd.allocate(items));
      break;
    }
    case PlacementSpec::Kind::kSea: {
      const auto items = core::normalize(*cat.catalog, model);
      core::SeaAllocator sea{placement.hot_load_share};
      from_assignment(sea.allocate(items));
      break;
    }
    case PlacementSpec::Kind::kRandom: {
      if (spec.disks > 0) {
        // The paper's Figures 2-4 baseline: spread over a fixed farm.
        // Normalize leniently (L=1): random knows nothing about load.
        core::LoadModel lenient = model;
        lenient.load_fraction = 1.0;
        const auto items = core::normalize(*cat.catalog, lenient);
        core::RandomAllocator rnd{spec.disks, spec.seed};
        from_assignment(rnd.allocate(items));
        entry.alloc_disks = spec.disks;
      } else {
        // §5.1's convention: random packs into the same number of disks as
        // Pack_Disks would use under the scenario's load model.
        const auto items = core::normalize(*cat.catalog, model);
        core::PackDisks pack;
        const auto farm = pack.allocate(items).disk_count;
        core::RandomAllocator rnd{farm, spec.seed};
        from_assignment(rnd.allocate(items));
        entry.alloc_disks = farm;
      }
      break;
    }
    case PlacementSpec::Kind::kMaid: {
      if (spec.disks <= placement.cache_disks) {
        throw std::invalid_argument{
            "ScenarioSpec: maid placement needs disks > cache disks "
            "(set disks=<total farm>)"};
      }
      const auto maid = core::build_maid(*cat.catalog, placement.cache_disks,
                                         spec.disks - placement.cache_disks,
                                         spec.params.capacity);
      entry.mapping = std::make_shared<const std::vector<std::uint32_t>>(
          maid.mapping);
      entry.alloc_disks = maid.total_disks;
      for (std::uint32_t d = 0; d < maid.cache_disks; ++d) {
        entry.policy_overrides.emplace_back(d, PolicySpec::never());
      }
      break;
    }
  }
  return mappings_.emplace(key, std::move(entry)).first->second;
}

ResolvedScenario ScenarioCache::resolve(const ScenarioSpec& spec) {
  // A trace-kind workload must agree with the catalog it replays against:
  // the dispatcher locates every record through the scenario catalog.
  if (spec.workload.kind == WorkloadSpec::Kind::kTrace) {
    if (spec.workload.trace_path.empty()) {
      throw std::invalid_argument{
          "ScenarioSpec: an injected in-memory trace cannot be resolved; "
          "use workload=replay with a nersc/trace catalog, or trace:<stem>"};
    }
    if (spec.catalog.kind != CatalogSpec::Kind::kTrace ||
        spec.catalog.path != spec.workload.trace_path) {
      throw std::invalid_argument{
          "ScenarioSpec: workload trace:" + spec.workload.trace_path +
          " must replay its own catalog (set catalog=trace:" +
          spec.workload.trace_path + " or use workload=replay)"};
    }
  }

  ResolvedScenario out;
  const auto& cat = catalog_for(spec);
  out.catalog = cat.catalog;
  out.trace = cat.trace;

  const bool replays = spec.workload.kind == WorkloadSpec::Kind::kReplay ||
                       spec.workload.kind == WorkloadSpec::Kind::kTrace;
  if (replays && cat.trace == nullptr) {
    throw std::invalid_argument{
        "ScenarioSpec: workload '" + spec.workload.spec() +
        "' needs a catalog that carries a trace (nersc(...) or "
        "trace:<stem>)"};
  }
  const double rate = std::max(
      1e-6, replays ? static_cast<double>(cat.trace->size()) /
                          std::max(1.0, cat.trace->duration())
                    : spec.workload.mean_rate());

  const auto& mapping = mapping_for(spec, cat, rate);

  ExperimentConfig cfg;
  cfg.label = spec.label;
  cfg.catalog = out.catalog.get();
  cfg.mapping = *mapping.mapping;
  cfg.num_disks = mapping.alloc_disks;
  if (spec.placement.kind != PlacementSpec::Kind::kRandom &&
      spec.placement.kind != PlacementSpec::Kind::kMaid) {
    cfg.num_disks = std::max(cfg.num_disks, spec.disks);
  }
  cfg.params = spec.params;
  cfg.policy = spec.policy;
  cfg.scheduler = spec.scheduler;
  cfg.policy_overrides = mapping.policy_overrides;
  cfg.cache = spec.cache;
  cfg.workload = replays ? WorkloadSpec::replay(*cat.trace) : spec.workload;
  cfg.seed = spec.seed;
  cfg.shards = spec.shards;
  cfg.obs = spec.obs;
  cfg.replicas = spec.placement.replicas;
  cfg.orch = spec.orch;
  // The off-load tier appends its always-on log disks after the data
  // disks; they hold no catalog files, only deferred writes in flight.
  if (spec.orch.offload) cfg.num_disks += spec.orch.log_disks;
  out.config = std::move(cfg);
  return out;
}

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  ScenarioCache cache;
  return cache.resolve(spec);
}

RunResult run_scenario(const ScenarioSpec& spec) {
  const auto resolved = resolve_scenario(spec);
  return run_experiment(resolved.config);
}

RunResult run_scenario(const ScenarioSpec& spec, obs::RunTrace* trace,
                       FleetPerf* perf) {
  const auto resolved = resolve_scenario(spec);
  return run_experiment(resolved.config, trace, perf);
}

std::vector<RunResult> run_scenarios(std::span<const ScenarioSpec> specs,
                                     unsigned max_threads) {
  ScenarioCache cache;
  std::vector<ResolvedScenario> resolved;
  resolved.reserve(specs.size());
  std::vector<ExperimentConfig> configs;
  configs.reserve(specs.size());
  for (const auto& spec : specs) {
    resolved.push_back(cache.resolve(spec));
    configs.push_back(resolved.back().config);
  }
  return run_sweep(configs, max_threads);
}

// ------------------------------------------------------------------ json

std::string to_json(const RunResult& r) {
  const auto num = [](double v) { return util::format_roundtrip(v); };
  std::string out = "{";
  out += "\"disks\": " + std::to_string(r.per_disk.size());
  out += ", \"requests\": " + std::to_string(r.requests);
  out += ", \"events\": " + std::to_string(r.events);
  out += ", \"horizon_s\": " + num(r.power.horizon_s);
  out += ", \"energy_j\": " + num(r.power.energy);
  out += ", \"avg_power_w\": " + num(r.power.average_power);
  out += ", \"always_on_energy_j\": " + num(r.power.always_on_energy);
  out += ", \"power_saving\": " + num(r.power.saving_vs_always_on);
  out += ", \"spin_ups\": " + std::to_string(r.power.spin_ups);
  out += ", \"spin_downs\": " + std::to_string(r.power.spin_downs);
  out += ", \"resp_mean_s\": " + num(r.response.mean());
  out += ", \"resp_p50_s\": " + num(r.response.p50());
  out += ", \"resp_p95_s\": " + num(r.response.p95());
  out += ", \"resp_p99_s\": " + num(r.response.p99());
  out += ", \"resp_max_s\": " + num(r.response.max());
  out += ", \"cache_hits\": " + std::to_string(r.cache.hits);
  out += ", \"cache_misses\": " + std::to_string(r.cache.misses);
  out += ", \"completed_at_horizon\": " +
         std::to_string(r.completed_at_horizon);
  out += ", \"in_flight_at_horizon\": " +
         std::to_string(r.in_flight_at_horizon);
  // Farm-wide idle-period structure: the per-disk LogHistograms merged
  // bin-wise (order-independent), summarized the same way at any shard
  // count.  The signal the spin-down economics turn on.
  stats::LogHistogram idle{disk::DiskMetrics::kIdleHistLo,
                           disk::DiskMetrics::kIdleHistHi,
                           disk::DiskMetrics::kIdleHistBins};
  for (const auto& d : r.per_disk) idle.merge(d.idle_periods);
  out += ", \"idle_periods\": {\"count\": " + std::to_string(idle.binned());
  out += ", \"mean_s\": " + num(idle.mean());
  out += ", \"p50_s\": " + num(idle.percentile(50.0));
  out += ", \"p99_s\": " + num(idle.percentile(99.0));
  out += "}";
  out += "}";
  return out;
}

std::string to_json(const FleetPerf& perf) {
  const auto num = [](double v) { return util::format_roundtrip(v); };
  std::string out = "{";
  out += "\"shards\": " + std::to_string(perf.shards);
  out += ", \"workers\": " + std::to_string(perf.workers);
  out += ", \"router_busy_s\": " + num(perf.router_busy_s);
  out += ", \"router_stall_s\": " + num(perf.router_stall_s);
  out += ", \"worker_busy_s\": [";
  for (std::size_t w = 0; w < perf.worker_busy_s.size(); ++w) {
    if (w != 0) out += ", ";
    out += num(perf.worker_busy_s[w]);
  }
  out += "], \"worker_wait_s\": [";
  for (std::size_t w = 0; w < perf.worker_wait_s.size(); ++w) {
    if (w != 0) out += ", ";
    out += num(perf.worker_wait_s[w]);
  }
  out += "], \"per_shard\": [";
  for (std::size_t s = 0; s < perf.per_shard.size(); ++s) {
    const auto& row = perf.per_shard[s];
    if (s != 0) out += ", ";
    out += "{\"shard\": " + std::to_string(row.shard);
    out += ", \"submissions\": " + std::to_string(row.submissions);
    out += ", \"batches\": " + std::to_string(row.batches);
    out += ", \"events\": " + std::to_string(row.events);
    out += ", \"ring_high_water\": " + std::to_string(row.ring_high_water);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string to_json(const ScenarioSpec& spec, const RunResult& r) {
  std::string out = "{\"scenario\": \"" + json_escape(spec.spec()) + "\", ";
  const std::string body = to_json(r);
  out += body.substr(1); // splice the metric fields into the same object
  return out;
}

} // namespace spindown::sys
