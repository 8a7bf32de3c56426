// Figure 20 / Appendix D: per-chunk quality sensitivity estimated by
// computer-vision importance models (AMVM, DSN, Video2GIF) vs the user
// study, on Lava, Tank, Animal and Soccer2. Paper: CV importance does not
// track true sensitivity.
#include <cstdio>

#include "bench_util.h"
#include "crowd/scheduler.h"
#include "cv/cv_models.h"
#include "media/dataset.h"
#include "util/stats.h"

using namespace sensei;

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {}, {}, "bench_fig20_cv_models");
  crowd::GroundTruthQoE oracle;
  media::Encoder encoder;
  uint64_t seed = 2000;

  std::printf("%s", util::banner(
                        "Figure 20: quality-sensitivity estimates — user study vs "
                        "CV models (first 5 chunks per video)")
                        .c_str());
  std::vector<double> cv_corrs, study_corrs;
  for (const char* name : {"Lava", "Tank", "Animal", "Soccer2"}) {
    auto source = media::Dataset::by_name(name);
    auto video = encoder.encode(source);

    // "User study": profiled weights from the crowdsourcing pipeline.
    crowd::Scheduler scheduler(oracle, crowd::SchedulerConfig(), seed++);
    auto profile = scheduler.profile(video);
    auto study = util::normalize01(profile.weights);

    auto cv_results = cv::run_all(source);
    util::Table table({"chunk", "user study", "AMVM", "DSN", "video2gif"});
    for (size_t c = 0; c < 5 && c < source.num_chunks(); ++c) {
      table.add_row(std::vector<double>{static_cast<double>(c + 1), study[c],
                                        cv_results[0].scores[c], cv_results[1].scores[c],
                                        cv_results[2].scores[c]},
                    2);
    }
    std::printf("(%s)\n%s", name, table.to_string().c_str());

    auto s_true = source.true_sensitivity();
    study_corrs.push_back(util::spearman(profile.weights, s_true));
    for (const auto& r : cv_results) {
      cv_corrs.push_back(util::spearman(r.scores, s_true));
    }
  }
  std::printf("\nSRCC vs hidden true sensitivity: user-study weights mean %.2f, "
              "CV models mean %.2f (paper: CV trends are not aligned)\n",
              util::mean(study_corrs), util::mean(cv_corrs));
  return 0;
}
