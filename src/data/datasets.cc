#include "data/datasets.h"

#include <cmath>

namespace wsq {

const std::vector<StateRecord>& UsStates1998() {
  static const std::vector<StateRecord>* const kStates =
      new std::vector<StateRecord>{
          {"Alabama", 4352000, "Montgomery"},
          {"Alaska", 614000, "Juneau"},
          {"Arizona", 4669000, "Phoenix"},
          {"Arkansas", 2538000, "Little Rock"},
          {"California", 32667000, "Sacramento"},
          {"Colorado", 3971000, "Denver"},
          {"Connecticut", 3274000, "Hartford"},
          {"Delaware", 744000, "Dover"},
          {"Florida", 14916000, "Tallahassee"},
          {"Georgia", 7642000, "Atlanta"},
          {"Hawaii", 1193000, "Honolulu"},
          {"Idaho", 1229000, "Boise"},
          {"Illinois", 12045000, "Springfield"},
          {"Indiana", 5899000, "Indianapolis"},
          {"Iowa", 2862000, "Des Moines"},
          {"Kansas", 2629000, "Topeka"},
          {"Kentucky", 3936000, "Frankfort"},
          {"Louisiana", 4369000, "Baton Rouge"},
          {"Maine", 1244000, "Augusta"},
          {"Maryland", 5135000, "Annapolis"},
          {"Massachusetts", 6147000, "Boston"},
          {"Michigan", 9817000, "Lansing"},
          {"Minnesota", 4725000, "Saint Paul"},
          {"Mississippi", 2752000, "Jackson"},
          {"Missouri", 5439000, "Jefferson City"},
          {"Montana", 880000, "Helena"},
          {"Nebraska", 1663000, "Lincoln"},
          {"Nevada", 1747000, "Carson City"},
          {"New Hampshire", 1185000, "Concord"},
          {"New Jersey", 8115000, "Trenton"},
          {"New Mexico", 1737000, "Santa Fe"},
          {"New York", 18175000, "Albany"},
          {"North Carolina", 7546000, "Raleigh"},
          {"North Dakota", 638000, "Bismarck"},
          {"Ohio", 11209000, "Columbus"},
          {"Oklahoma", 3347000, "Oklahoma City"},
          {"Oregon", 3282000, "Salem"},
          {"Pennsylvania", 12001000, "Harrisburg"},
          {"Rhode Island", 988000, "Providence"},
          {"South Carolina", 3836000, "Columbia"},
          {"South Dakota", 738000, "Pierre"},
          {"Tennessee", 5431000, "Nashville"},
          {"Texas", 19760000, "Austin"},
          {"Utah", 2100000, "Salt Lake City"},
          {"Vermont", 591000, "Montpelier"},
          {"Virginia", 6791000, "Richmond"},
          {"Washington", 5689000, "Olympia"},
          {"West Virginia", 1811000, "Charleston"},
          {"Wisconsin", 5224000, "Madison"},
          {"Wyoming", 481000, "Cheyenne"},
      };
  return *kStates;
}

const std::vector<std::string>& AcmSigs() {
  static const std::vector<std::string>* const kSigs =
      new std::vector<std::string>{
          "SIGACT",    "SIGAda",   "SIGAPL",     "SIGAPP",  "SIGARCH",
          "SIGART",    "SIGBIO",   "SIGCAPH",    "SIGCAS",  "SIGCHI",
          "SIGCOMM",   "SIGCPR",   "SIGCSE",     "SIGCUE",  "SIGDA",
          "SIGDOC",    "SIGGRAPH", "SIGGROUP",   "SIGIR",   "SIGKDD",
          "SIGMETRICS", "SIGMICRO", "SIGMIS",    "SIGMOBILE", "SIGMOD",
          "SIGMM",     "SIGNUM",   "SIGOPS",     "SIGPLAN", "SIGSAC",
          "SIGSAM",    "SIGSIM",   "SIGSMALL",   "SIGSOFT", "SIGUCCS",
          "SIGWEB",    "SIGecom",
      };
  return *kSigs;
}

const std::vector<std::string>& CsFields() {
  static const std::vector<std::string>* const kFields =
      new std::vector<std::string>{
          "databases",
          "operating systems",
          "artificial intelligence",
          "computer graphics",
          "programming languages",
          "information retrieval",
          "computer networks",
          "software engineering",
          "machine learning",
          "theory of computation",
      };
  return *kFields;
}

const std::vector<std::string>& MovieTitles() {
  static const std::vector<std::string>* const kMovies =
      new std::vector<std::string>{
          "Deep Descent",     "Coral Kingdom",  "The Last Reef",
          "Silent Depths",    "Midnight Harbor", "Desert Mirage",
          "Mountain Echo",    "Prairie Storm",  "The Gold Rush Trail",
          "City of Lanterns",
      };
  return *kMovies;
}

const std::vector<std::string>& TemplateConstants() {
  static const std::vector<std::string>* const kConstants =
      new std::vector<std::string>{
          "computer", "beaches",  "crime",    "politics",
          "frogs",    "tourism",  "weather",  "history",
          "music",    "football", "lakes",    "deserts",
          "goldmines", "festival", "wildlife", "canyons",
      };
  return *kConstants;
}

PaperCorpusSpec MakePaperCorpusSpec() {
  PaperCorpusSpec spec;

  // --- States: mention weight grows sublinearly with population, with
  // prominence boosts that reproduce the paper's Query 1 top ranks and
  // keep small states (Alaska, Wyoming, ...) on top per capita.
  for (const StateRecord& s : UsStates1998()) {
    double w = std::sqrt(static_cast<double>(s.population)) / 300.0;
    if (s.name == "California") w *= 2.6;
    if (s.name == "Washington") w *= 4.4;  // state + U.S. capital hits
    if (s.name == "New York") w *= 2.4;
    if (s.name == "Texas") w *= 1.8;
    if (s.name == "Michigan") w *= 1.5;
    // Per-capita leaders (paper Query 2): small states mentioned far
    // more than population alone would predict.
    if (s.name == "Alaska") w *= 4.0;
    if (s.name == "Hawaii") w *= 2.8;
    if (s.name == "Delaware") w *= 2.4;
    if (s.name == "Wyoming") w *= 2.2;
    spec.entities.push_back(EntitySpec{s.name, w});

    // Capitals: generally rarer than their states...
    double cw = 0.35 * w;
    // ...except the six common-word capitals from Query 4's complete
    // result (Columbia, Lincoln, Jackson, Boston, Atlanta, Pierre).
    if (s.capital == "Atlanta") cw = w * 1.35;
    if (s.capital == "Lincoln") cw = w * 2.1;
    if (s.capital == "Boston") cw = w * 1.6;
    if (s.capital == "Jackson") cw = w * 2.0;
    if (s.capital == "Pierre") cw = w * 2.6;
    if (s.capital == "Columbia") cw = w * 3.4;
    spec.entities.push_back(EntitySpec{s.capital, cw});
  }

  // --- ACM SIGs: modest, skewed mention weights.
  {
    double w = 3.0;
    for (const std::string& sig : AcmSigs()) {
      spec.entities.push_back(EntitySpec{sig, w});
      w *= 0.93;
      if (w < 0.4) w = 0.4;
    }
  }

  // --- CS fields, movies, template constants.
  for (const std::string& f : CsFields()) {
    spec.entities.push_back(EntitySpec{f, 4.0});
  }
  for (const std::string& m : MovieTitles()) {
    spec.entities.push_back(EntitySpec{m, 1.2});
  }
  for (const std::string& c : TemplateConstants()) {
    spec.entities.push_back(EntitySpec{c, 6.0});
  }
  spec.entities.push_back(EntitySpec{"four corners", 0.8});
  spec.entities.push_back(EntitySpec{"scuba diving", 2.0});
  spec.entities.push_back(EntitySpec{"Knuth", 0.8});

  // Plants phrases `a` and `b` near each other (no third phrase).
  auto plant = [&spec](std::string a, std::string b, double weight) {
    spec.cooccurrences.push_back({std::move(a), std::move(b), weight, ""});
  };

  // --- Query 3: the four-corners states, with the paper's sharp
  // dropoff after the fourth (1745/1249/1095/994 vs 215).
  plant("Colorado", "four corners", 88.0);
  plant("New Mexico", "four corners", 63.0);
  plant("Arizona", "four corners", 55.0);
  plant("Utah", "four corners", 50.0);
  plant("California", "four corners", 2.0);

  // --- §4.1 footnote 3: Sigs near "Knuth", in the paper's order.
  plant("SIGACT", "Knuth", 44.0);
  plant("SIGPLAN", "Knuth", 22.0);
  plant("SIGGRAPH", "Knuth", 13.0);
  plant("SIGMOD", "Knuth", 10.0);
  plant("SIGCOMM", "Knuth", 7.0);
  plant("SIGSAM", "Knuth", 5.0);

  // --- DSQ scenario: coastal states and diving movies near the phrase.
  plant("Florida", "scuba diving", 9.0);
  plant("Hawaii", "scuba diving", 7.0);
  plant("California", "scuba diving", 5.0);
  plant("Deep Descent", "scuba diving", 6.0);
  plant("Coral Kingdom", "scuba diving", 4.0);
  plant("Silent Depths", "scuba diving", 3.0);
  // Triple: "an underwater thriller filmed in Florida" (§1) — plants
  // Florida NEAR Deep Descent NEAR scuba diving in one document.
  spec.cooccurrences.push_back(
      {"Florida", "Deep Descent", 4.0, "scuba diving"});

  // --- Table 1 template constants near a spread of states so the
  // benchmark queries return non-trivial counts.
  {
    const auto& states = UsStates1998();
    const auto& constants = TemplateConstants();
    for (size_t c = 0; c < constants.size(); ++c) {
      for (size_t k = 0; k < 8; ++k) {
        const StateRecord& s = states[(c * 7 + k * 5) % states.size()];
        double w = 2.5 - 0.2 * static_cast<double>(k);
        plant(s.name, constants[c], w);
      }
    }
  }

  // --- Template 3 pairs Sigs with the constant pool; plant enough
  // co-occurrence that most Sigs have hits (as the live Web did),
  // so the sequential baseline performs the full two-engine call load.
  {
    const auto& sigs = AcmSigs();
    const auto& constants = TemplateConstants();
    for (size_t c = 0; c < constants.size(); ++c) {
      for (size_t k = 0; k < 12; ++k) {
        const std::string& sig = sigs[(c * 5 + k * 3) % sigs.size()];
        plant(sig, constants[c], 1.6);
      }
    }
  }

  // --- CS fields near SIGs (for the §4.5.4 Example 3 query).
  plant("SIGMOD", "databases", 5.0);
  plant("SIGOPS", "operating systems", 5.0);
  plant("SIGART", "artificial intelligence", 4.0);
  plant("SIGGRAPH", "computer graphics", 4.0);
  plant("SIGPLAN", "programming languages", 4.0);
  plant("SIGIR", "information retrieval", 4.0);
  plant("SIGCOMM", "computer networks", 4.0);
  plant("SIGSOFT", "software engineering", 4.0);

  return spec;
}

CorpusConfig DefaultPaperCorpusConfig() {
  CorpusConfig config;
  config.num_documents = 20000;
  config.min_doc_length = 40;
  config.max_doc_length = 200;
  config.vocab_size = 4000;
  config.seed = 42;
  config.entity_rate = 0.55;
  config.max_entity_mentions = 3;
  config.cooc_rate = 0.14;
  return config;
}

Corpus MakePaperCorpus(const CorpusConfig& config) {
  PaperCorpusSpec spec = MakePaperCorpusSpec();
  return Corpus::Generate(config, std::move(spec.entities),
                          std::move(spec.cooccurrences));
}

}  // namespace wsq
