#include "ingest/record.h"

#include <algorithm>
#include <cstdio>

#include "recipe/features.h"
#include "recipe/ingredient.h"
#include "serve/protocol.h"

namespace texrheo::ingest {

namespace {

void AppendRatios(std::string* out, const math::Vector& v) {
  char buf[40];
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out->push_back(',');
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    *out += buf;
  }
}

StatusOr<math::Vector> ParseRatios(std::string_view field, size_t dim,
                                   const char* what) {
  math::Vector out(dim);
  size_t start = 0;
  size_t index = 0;
  while (start <= field.size()) {
    size_t comma = field.find(',', start);
    if (comma == std::string_view::npos) comma = field.size();
    if (index >= dim) {
      return Status::InvalidArgument(std::string(what) +
                                     ": too many components");
    }
    const std::string_view part = field.substr(start, comma - start);
    double value = 0.0;
    if (!serve::ParseRatio(part, &value)) {
      return Status::InvalidArgument(std::string(what) + ": bad ratio '" +
                                     std::string(part) + "'");
    }
    if (value > 1.0) {
      return Status::InvalidArgument(std::string(what) +
                                     ": ratio out of [0, 1]");
    }
    out[index++] = value;
    if (comma == field.size()) break;
    start = comma + 1;
  }
  if (index != dim) {
    return Status::InvalidArgument(std::string(what) + ": expected " +
                                   std::to_string(dim) + " components, got " +
                                   std::to_string(index));
  }
  return out;
}

}  // namespace

void CanonicalizeRecord(IngestRecord& record) {
  std::sort(record.terms.begin(), record.terms.end());
  record.terms.erase(std::unique(record.terms.begin(), record.terms.end()),
                     record.terms.end());
}

std::string EncodeRecord(const IngestRecord& record) {
  std::string out = "g=";
  AppendRatios(&out, record.gel);
  out += " e=";
  AppendRatios(&out, record.emulsion);
  out += " t=";
  for (size_t i = 0; i < record.terms.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += record.terms[i];
  }
  return out;
}

StatusOr<IngestRecord> DecodeRecord(std::string_view encoded) {
  // Three space-separated fields, each "<tag>=<body>"; the terms body may
  // be empty (a recipe whose description named no dictionary terms).
  std::string_view rest = encoded;
  std::string_view fields[3];
  for (int i = 0; i < 3; ++i) {
    size_t space = i < 2 ? rest.find(' ') : rest.size();
    if (space == std::string_view::npos) {
      return Status::InvalidArgument("ingest record: expected 3 fields");
    }
    fields[i] = rest.substr(0, space);
    rest = i < 2 ? rest.substr(space + 1) : std::string_view();
  }
  if (fields[0].substr(0, 2) != "g=" || fields[1].substr(0, 2) != "e=" ||
      fields[2].substr(0, 2) != "t=") {
    return Status::InvalidArgument("ingest record: bad field tags");
  }
  IngestRecord record;
  TEXRHEO_ASSIGN_OR_RETURN(
      record.gel,
      ParseRatios(fields[0].substr(2), recipe::kNumGelTypes, "gel"));
  TEXRHEO_ASSIGN_OR_RETURN(
      record.emulsion,
      ParseRatios(fields[1].substr(2), recipe::kNumEmulsionTypes,
                  "emulsion"));
  std::string_view terms = fields[2].substr(2);
  size_t start = 0;
  while (start < terms.size()) {
    size_t comma = terms.find(',', start);
    if (comma == std::string_view::npos) comma = terms.size();
    if (comma > start) {
      record.terms.emplace_back(terms.substr(start, comma - start));
    }
    start = comma + 1;
  }
  CanonicalizeRecord(record);
  return record;
}

serve::TextureQuery RecordToQuery(const IngestRecord& record) {
  serve::TextureQuery query;
  query.gel_concentration = record.gel;
  query.emulsion_concentration = record.emulsion;
  query.texture_terms = record.terms;
  return query;
}

IngestRecord RecordFromQuery(const serve::TextureQuery& query) {
  IngestRecord record;
  record.gel = query.gel_concentration;
  record.emulsion = query.emulsion_concentration;
  if (record.gel.size() == 0) record.gel = math::Vector(recipe::kNumGelTypes);
  if (record.emulsion.size() == 0) {
    record.emulsion = math::Vector(recipe::kNumEmulsionTypes);
  }
  record.terms = query.texture_terms;
  CanonicalizeRecord(record);
  return record;
}

StatusOr<IngestRecord> RecordFromStream(const corpus::StreamRecipe& item,
                                        const recipe::IngredientDatabase& db) {
  TEXRHEO_ASSIGN_OR_RETURN(recipe::Concentrations concentrations,
                           recipe::ComputeConcentrations(item.recipe, db));
  IngestRecord record;
  record.gel = std::move(concentrations.gel);
  record.emulsion = std::move(concentrations.emulsion);
  record.terms = item.texture_terms;
  CanonicalizeRecord(record);
  return record;
}

std::string IngestCommandFor(const IngestRecord& record) {
  std::string spec;
  char buf[64];
  auto add = [&](const char* name, double ratio) {
    if (ratio <= 0.0) return;
    if (!spec.empty()) spec.push_back(',');
    std::snprintf(buf, sizeof(buf), "%s=%.17g", name, ratio);
    spec += buf;
  };
  for (size_t i = 0; i < record.gel.size(); ++i) {
    add(recipe::GelTypeName(static_cast<recipe::GelType>(i)), record.gel[i]);
  }
  for (size_t i = 0; i < record.emulsion.size(); ++i) {
    add(recipe::EmulsionTypeName(static_cast<recipe::EmulsionType>(i)),
        record.emulsion[i]);
  }
  std::string command = "INGEST " + (spec.empty() ? std::string("-") : spec);
  if (!record.terms.empty()) {
    command += " terms=";
    for (size_t i = 0; i < record.terms.size(); ++i) {
      if (i > 0) command.push_back(',');
      command += record.terms[i];
    }
  }
  return command;
}

}  // namespace texrheo::ingest
