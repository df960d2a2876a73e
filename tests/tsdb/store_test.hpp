#pragma once
// STORE_TEST(Suite, Name) { ... } defines one query-semantics case and
// runs it against both tag stores: the production TsdbEngine as
// Suite.Name and the legacy oracle as LegacySuite.Name.  Inside the body
// `Db` names the store type under test, so the case is written once.

#include <gtest/gtest.h>

#include "tsdb/legacy_tsdb.hpp"
#include "tsdb/query.hpp"

#define STORE_TEST(suite, name)                                        \
  template <typename Db>                                               \
  void suite##_##name();                                               \
  TEST(suite, name) { suite##_##name<::ruru::TsdbEngine>(); }          \
  TEST(Legacy##suite, name) { suite##_##name<::ruru::TimeSeriesDb>(); } \
  template <typename Db>                                               \
  void suite##_##name()
