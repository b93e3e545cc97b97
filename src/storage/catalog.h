// Catalog: named table container used by sources and the warehouse.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace mvc {

/// Owns a set of named tables. Deterministically ordered by name.
class Catalog {
 public:
  /// Creates an empty table; AlreadyExists if the name is taken.
  Status CreateTable(const std::string& name, const Schema& schema);

  /// Removes a table; NotFound if absent.
  Status DropTable(const std::string& name);

  /// Mutable table lookup; NotFound if absent.
  Result<Table*> GetTable(const std::string& name);

  /// Const table lookup; NotFound if absent.
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  /// Names of all tables, sorted.
  std::vector<std::string> TableNames() const;

  size_t NumTables() const { return tables_.size(); }

  /// Deep copy of all tables.
  Catalog Clone() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace mvc
