#include "storage/database.h"

#include "common/check.h"
#include "common/strings.h"
#include "storage/index.h"

namespace hql {

Database::Database(Schema schema) : schema_(std::move(schema)) {
  for (const auto& [name, arity] : schema_.arities()) {
    relations_.emplace(name, Relation(arity));
  }
}

Result<Relation> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second;
}

const Relation& Database::GetRef(const std::string& name) const {
  auto it = relations_.find(name);
  HQL_CHECK_MSG(it != relations_.end(), name.c_str());
  return it->second;
}

Status Database::Set(const std::string& name, Relation value) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  if (it->second.arity() != value.arity()) {
    return Status::TypeError(StrFormat(
        "arity mismatch assigning %s: schema %zu, value %zu", name.c_str(),
        it->second.arity(), value.arity()));
  }
  it->second = std::move(value);
  return Status::OK();
}

Result<std::shared_ptr<const RelationIndex>> Database::BuildIndex(
    const std::string& name, const std::vector<size_t>& columns) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= it->second.arity()) {
      return Status::InvalidArgument("index column out of range for " + name);
    }
    if (i > 0 && columns[i - 1] >= columns[i]) {
      return Status::InvalidArgument("index columns must be strictly "
                                     "ascending");
    }
  }
  return it->second.base().IndexOn(columns);
}

Database Database::Consolidated() const {
  Database out(schema_);
  for (const auto& [name, rel] : relations_) {
    HQL_CHECK(
        out.Set(name, rel.base().ApplyTuples(rel.adds(), rel.dels())).ok());
  }
  return out;
}

bool Database::operator==(const Database& other) const {
  if (relations_.size() != other.relations_.size()) return false;
  auto a = relations_.begin();
  auto b = other.relations_.begin();
  for (; a != relations_.end(); ++a, ++b) {
    if (a->first != b->first) return false;
    if (a->second != b->second) return false;
  }
  return true;
}

uint64_t Database::Hash() const {
  // Content hash: an overlay hashes as its merged content (Relation::Hash).
  uint64_t h = 0x452821E638D01377ULL;
  for (const auto& [name, rel] : relations_) {
    h = HashCombine(h, HashString(name));
    h = HashCombine(h, rel.Hash());
  }
  return h;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name;
    out += " = ";
    out += rel.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace hql
