// Table 1: summary of the test video set (names, genres, lengths, source
// datasets), plus the synthesized per-video content statistics our substrate
// generates for each entry.
#include <cstdio>

#include "bench_util.h"
#include "media/dataset.h"
#include "util/stats.h"
#include "util/table.h"

using namespace sensei;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_table1_dataset");
  std::printf("%s", util::banner("Table 1: summary of the test video set").c_str());
  util::Table table({"name", "genre", "length", "source dataset", "chunks",
                     "sens mean", "sens sd", "key moments"});
  for (const auto& entry : media::Dataset::table1()) {
    media::SourceVideo video = media::Dataset::by_name(entry.name);
    auto s = video.true_sensitivity();
    int keys = 0;
    for (const auto& c : video.chunks()) {
      keys += c.kind == media::SceneKind::kKeyMoment ? 1 : 0;
    }
    table.add_row({entry.name, media::to_string(entry.genre), video.length_string(),
                   entry.source_dataset, std::to_string(video.num_chunks()),
                   util::Table::format_double(util::mean(s), 2),
                   util::Table::format_double(util::stddev(s), 2), std::to_string(keys)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("descriptions (Figure 19):\n");
  for (const auto& entry : media::Dataset::table1()) {
    std::printf("  %-13s %s\n", entry.name.c_str(), entry.description.c_str());
  }
  return 0;
}
