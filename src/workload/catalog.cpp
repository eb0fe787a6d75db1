#include "workload/catalog.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/math.h"
#include "workload/distributions.h"

namespace spindown::workload {

FileCatalog::FileCatalog(std::vector<FileInfo> files)
    : files_(std::move(files)) {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].id != i) {
      throw std::invalid_argument{"FileCatalog: ids must be dense 0..n-1"};
    }
    total_bytes_ += files_[i].size;
  }
}

void FileCatalog::throw_unknown_id(FileId id) const {
  throw std::out_of_range{"FileCatalog::by_id: file id " +
                          std::to_string(id) + " not in a catalog of " +
                          std::to_string(files_.size())};
}

util::Bytes FileCatalog::min_size() const {
  if (files_.empty()) return 0;
  return std::min_element(files_.begin(), files_.end(), [](auto& a, auto& b) {
           return a.size < b.size;
         })->size;
}

util::Bytes FileCatalog::max_size() const {
  if (files_.empty()) return 0;
  return std::max_element(files_.begin(), files_.end(), [](auto& a, auto& b) {
           return a.size < b.size;
         })->size;
}

double FileCatalog::mean_request_bytes() const {
  double acc = 0.0;
  for (const auto& f : files_) {
    acc += f.popularity * static_cast<double>(f.size);
  }
  return acc;
}

std::vector<double> FileCatalog::popularity_vector() const {
  std::vector<double> p;
  p.reserve(files_.size());
  for (const auto& f : files_) p.push_back(f.popularity);
  return p;
}

void FileCatalog::normalize_popularity() {
  double sum = 0.0;
  for (const auto& f : files_) sum += f.popularity;
  if (sum <= 0.0) throw std::logic_error{"catalog popularity sums to zero"};
  for (auto& f : files_) f.popularity /= sum;
}

SyntheticSpec SyntheticSpec::paper_table1() {
  return SyntheticSpec{}; // defaults are Table 1
}

FileCatalog generate_catalog(const SyntheticSpec& spec, util::Rng& rng) {
  if (spec.n_files == 0) return FileCatalog{};
  const double a = spec.zipf_exponent > 0.0 ? spec.zipf_exponent
                                            : 1.0 - util::paper_zipf_theta();
  const ZipfPopularity pop{spec.n_files, a};
  const auto n = spec.n_files;
  const double smax = static_cast<double>(spec.max_size);

  // Size by *size rank* r (1 = largest): size(r) = S_max / r^a.
  auto size_of_rank = [&](std::size_t r) {
    return static_cast<util::Bytes>(smax / std::pow(static_cast<double>(r), a));
  };

  // Map popularity rank -> size rank according to the correlation mode.
  std::vector<std::size_t> size_rank_of(n);
  switch (spec.correlation) {
    case SizeCorrelation::kInverse:
      // Popularity rank 1 (hottest) gets size rank n (smallest).
      for (std::size_t i = 0; i < n; ++i) size_rank_of[i] = n - i;
      break;
    case SizeCorrelation::kDirect:
      for (std::size_t i = 0; i < n; ++i) size_rank_of[i] = i + 1;
      break;
    case SizeCorrelation::kIndependent: {
      std::vector<std::size_t> perm(n);
      std::iota(perm.begin(), perm.end(), std::size_t{1});
      rng.shuffle(std::span{perm});
      size_rank_of = std::move(perm);
      break;
    }
  }

  std::vector<FileInfo> files(n);
  for (std::size_t i = 0; i < n; ++i) {
    files[i].id = static_cast<FileId>(i);
    files[i].popularity = pop.pmf(i + 1); // file id i == popularity rank i+1
    files[i].size = size_of_rank(size_rank_of[i]);
  }
  return FileCatalog{std::move(files)};
}

std::vector<FileExtent> layout_extents(
    const FileCatalog& catalog, const std::vector<std::uint32_t>& mapping,
    std::uint32_t num_disks) {
  if (mapping.size() < catalog.size()) {
    throw std::invalid_argument{"layout_extents: mapping smaller than catalog"};
  }
  std::vector<std::uint64_t> cursor(num_disks, 0);
  std::vector<FileExtent> extents(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto disk = mapping[i];
    if (disk >= num_disks) {
      throw std::invalid_argument{
          "layout_extents: mapping references unknown disk"};
    }
    extents[i].lba = cursor[disk];
    extents[i].blocks = util::blocks_of(catalog[i].size);
    cursor[disk] += extents[i].blocks;
  }
  return extents;
}

} // namespace spindown::workload
