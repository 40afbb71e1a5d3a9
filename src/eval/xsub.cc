#include "eval/xsub.h"

#include "common/check.h"
#include "common/strings.h"

namespace hql {

const Relation* XsubValue::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void XsubValue::Bind(const std::string& name, Relation value) {
  values_.insert_or_assign(name, std::move(value));
}

XsubValue XsubValue::SmashWith(const XsubValue& later) const {
  XsubValue out = *this;
  for (const auto& [name, value] : later.values_) {
    out.values_.insert_or_assign(name, value);
  }
  return out;
}

Result<Database> XsubValue::ApplyTo(const Database& db) const {
  Database out = db;
  for (const auto& [name, value] : values_) {
    HQL_RETURN_IF_ERROR(out.Set(name, value.SharedCopy()));
  }
  return out;
}

uint64_t XsubValue::TotalTuples() const {
  uint64_t n = 0;
  for (const auto& [name, value] : values_) {
    (void)name;
    n += value.size();
  }
  return n;
}

std::string XsubValue::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    parts.push_back(value.ToString() + "/" + name);
  }
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace hql
