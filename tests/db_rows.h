// Test helpers over Database::Read: copies of the rows a read visits, so
// assertions can hold rows after the read returns.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "db/database.h"

namespace nagano::db {

// Every row `filter` selects, copied, in Read order (primary-key order).
inline std::vector<Row> CopyRows(const Database& db, std::string_view table,
                                 const RowFilter& filter = RowFilter::All()) {
  std::vector<Row> rows;
  db.Read(table, filter, [&](const Row& r) { rows.push_back(r); });
  return rows;
}

// The row whose primary key is `key`, or nullopt.
inline std::optional<Row> CopyRow(const Database& db, std::string_view table,
                                  Value key) {
  std::optional<Row> row;
  db.Read(table, RowFilter::Key(std::move(key)),
          [&](const Row& r) { row = r; });
  return row;
}

}  // namespace nagano::db
