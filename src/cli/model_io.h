// Model bundles and dataset directories — the on-disk artifacts that let
// the `kvec` subcommands compose across processes.
//
// A *model bundle* (`kvec train --model out.kvm`) is one checkpoint
// container (util/serialize.h) holding two sections: the full KvecConfig —
// dataset spec included, since the spec sizes every embedding table — and
// the parameter stream of Module::SaveParameters. `kvec eval` / `kvec
// serve` rebuild the model from the config section and then load the
// weights, so a bundle is self-describing: no sidecar files, no flag
// replay. Loads fail closed (container decode, config parse, and parameter
// shapes are all validated; on any failure the output pointer is left
// empty).
//
// A *dataset directory* (`kvec generate --out dir`) is the CSV layout of
// data/io.h split across train.csv / validation.csv / test.csv plus a
// spec.csv key-value table describing the DatasetSpec. It is deliberately
// plain text: the same directory doubles as the bring-your-own-data entry
// point (write the CSVs yourself, reuse any preset's spec or edit it).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "data/presets.h"
#include "data/types.h"
#include "util/serialize.h"
#include "util/table.h"

namespace kvec {
namespace cli {

// The model bundle's checkpoint-container section ids
// (kCheckpointSectionModelConfig / kCheckpointSectionModelParams) live in
// the registry in util/serialize.h with every other id.

// ---- Model bundle --------------------------------------------------------

// Serialises config + parameters; false on I/O failure.
bool SaveModelBundle(const std::string& path, KvecModel* model);

// Rebuilds the model from `path`. On failure returns nullptr and, when
// `error` is non-null, stores a one-line reason.
std::unique_ptr<KvecModel> LoadModelBundle(const std::string& path,
                                           std::string* error = nullptr);

// Config (de)serialisation used by the bundle; exposed for tests.
void WriteKvecConfig(const KvecConfig& config, BinaryWriter* writer);
bool ReadKvecConfig(BinaryReader* reader, KvecConfig* config);

// ---- Dataset directories -------------------------------------------------

// DatasetSpec as a key/value(/aux) table — the spec.csv payload.
Table SpecToTable(const DatasetSpec& spec);
bool SpecFromTable(const Table& table, DatasetSpec* spec);

// Writes spec.csv + {train,validation,test}.csv into `dir` (created if
// missing). False on I/O failure.
bool SaveDatasetDir(const std::string& dir, const Dataset& dataset,
                    std::string* error = nullptr);

// Loads a directory written by SaveDatasetDir (or hand-authored in the
// same layout). Fails closed with `*dataset` untouched.
bool LoadDatasetDir(const std::string& dir, Dataset* dataset,
                    std::string* error = nullptr);

// ---- Preset names --------------------------------------------------------

// Parses a dataset preset id from its canonical Table-I name
// ("USTC-TFC2016", "MovieLens-1M", "Traffic-FG", "Traffic-App",
// "Synthetic-Traffic(early)", "Synthetic-Traffic(late)") or the kebab-case
// aliases the CLI documents: ustc, movielens, traffic-fg, traffic-app,
// synthetic-early, synthetic-late. Case-insensitive; false on anything
// else.
bool ParsePresetId(const std::string& text, PresetId* id);

// All preset ids with their canonical names and CLI aliases, for --help
// and `kvec generate --list`.
struct PresetInfo {
  PresetId id;
  const char* canonical;
  const char* alias;
};
const std::vector<PresetInfo>& AllPresets();

}  // namespace cli
}  // namespace kvec

