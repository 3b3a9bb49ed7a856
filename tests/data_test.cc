// Tests for the synthetic data substrate: the semantic type registry,
// value generators, table/dataset generation, profiles, and the
// retained-type transformation.

#include <regex>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/semantic_types.h"
#include "data/table_generator.h"

namespace taste::data {
namespace {

const SemanticTypeRegistry& Reg() { return SemanticTypeRegistry::Default(); }

TEST(RegistryTest, HasExpectedScale) {
  EXPECT_GE(Reg().size(), 40);
  EXPECT_GE(Reg().num_groups(), 10);
}

TEST(RegistryTest, NullTypeRegistered) {
  int id = Reg().null_type_id();
  EXPECT_GE(id, 0);
  EXPECT_EQ(Reg().info(id).name, "type:null");
}

TEST(RegistryTest, IdByNameRoundTrip) {
  for (int id = 0; id < Reg().size(); ++id) {
    auto res = Reg().IdByName(Reg().info(id).name);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(*res, id);
  }
  EXPECT_FALSE(Reg().IdByName("no_such_type").ok());
}

TEST(RegistryTest, EveryTypeHasGeneratorAndSqlType) {
  Rng rng(1);
  for (int id = 0; id < Reg().size(); ++id) {
    EXPECT_FALSE(Reg().info(id).sql_type.empty()) << Reg().info(id).name;
    std::string v = Reg().GenerateValue(id, rng);
    EXPECT_FALSE(v.empty()) << Reg().info(id).name;
  }
}

TEST(RegistryTest, EveryConcreteTypeHasInformativeNames) {
  for (int id = 0; id < Reg().size(); ++id) {
    if (id == Reg().null_type_id()) continue;
    EXPECT_GE(Reg().info(id).informative_names.size(), 2u)
        << Reg().info(id).name;
  }
}

TEST(RegistryTest, InformativeNamesAreUniqueAcrossTypes) {
  std::set<std::string> seen;
  for (int id = 0; id < Reg().size(); ++id) {
    for (const auto& n : Reg().info(id).informative_names) {
      EXPECT_TRUE(seen.insert(n).second)
          << "name '" << n << "' reused by " << Reg().info(id).name;
    }
  }
}

TEST(RegistryTest, GroupsPartitionTypes) {
  int total = 0;
  for (int g = 0; g < Reg().num_groups(); ++g) {
    auto members = Reg().GroupMembers(g);
    total += static_cast<int>(members.size());
    EXPECT_FALSE(Reg().GroupAmbiguousNames(g).empty());
  }
  EXPECT_EQ(total, Reg().size());
}

TEST(RegistryTest, ConfusableGroupsHaveMultipleMembers) {
  // The two-phase mechanism needs groups where metadata alone cannot
  // separate members.
  int multi = 0;
  for (int g = 0; g < Reg().num_groups(); ++g) {
    if (Reg().GroupMembers(g).size() >= 2) ++multi;
  }
  EXPECT_GE(multi, 8);
}

TEST(GeneratorValueTest, EmailShape) {
  Rng rng(2);
  int id = *Reg().IdByName("email");
  for (int i = 0; i < 20; ++i) {
    std::string v = Reg().GenerateValue(id, rng);
    EXPECT_NE(v.find('@'), std::string::npos) << v;
    EXPECT_NE(v.find('.'), std::string::npos) << v;
  }
}

TEST(GeneratorValueTest, CreditCardShape) {
  Rng rng(3);
  int id = *Reg().IdByName("credit_card");
  std::regex re(R"(\d{4} \d{4} \d{4} \d{4})");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(std::regex_match(Reg().GenerateValue(id, rng), re));
  }
}

TEST(GeneratorValueTest, SsnShape) {
  Rng rng(4);
  int id = *Reg().IdByName("ssn");
  std::regex re(R"(\d{3}-\d{2}-\d{4})");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(std::regex_match(Reg().GenerateValue(id, rng), re));
  }
}

TEST(GeneratorValueTest, DateShape) {
  Rng rng(5);
  int id = *Reg().IdByName("date");
  std::regex re(R"(\d{4}-\d{2}-\d{2})");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(std::regex_match(Reg().GenerateValue(id, rng), re));
  }
}

TEST(GeneratorValueTest, IpShape) {
  Rng rng(6);
  int id = *Reg().IdByName("ip_address");
  std::regex re(R"(\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(std::regex_match(Reg().GenerateValue(id, rng), re));
  }
}

TEST(GeneratorValueTest, UuidShape) {
  Rng rng(7);
  int id = *Reg().IdByName("uuid");
  std::regex re(R"([0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12})");
  EXPECT_TRUE(std::regex_match(Reg().GenerateValue(id, rng), re));
}

TEST(GeneratorValueTest, ValuesFromDifferentGroupMembersDiffer) {
  // Content disambiguates within a confusion group: phone vs credit card
  // values must be distinguishable (different shapes).
  Rng rng(8);
  int phone = *Reg().IdByName("phone_number");
  int cc = *Reg().IdByName("credit_card");
  std::regex cc_re(R"(\d{4} \d{4} \d{4} \d{4})");
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(std::regex_match(Reg().GenerateValue(cc, rng), cc_re));
    EXPECT_FALSE(std::regex_match(Reg().GenerateValue(phone, rng), cc_re));
  }
}

TEST(MiscValueTest, FlavorsProduceDistinctSqlTypes) {
  EXPECT_EQ(SemanticTypeRegistry::MiscSqlType(0), "varchar(255)");
  EXPECT_EQ(SemanticTypeRegistry::MiscSqlType(1), "int");
  EXPECT_EQ(SemanticTypeRegistry::MiscSqlType(2), "double");
}

TEST(TableGeneratorTest, GeneratesWithinProfileBounds) {
  DatasetProfile p = DatasetProfile::WikiLike(30);
  TableGenerator gen(p, Reg());
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    TableSpec t = gen.GenerateTable(rng);
    EXPECT_GE(static_cast<int>(t.columns.size()), p.min_columns);
    EXPECT_LE(static_cast<int>(t.columns.size()), p.max_columns);
    EXPECT_GE(t.num_rows, p.min_rows);
    EXPECT_LE(t.num_rows, p.max_rows);
    for (const auto& c : t.columns) {
      EXPECT_EQ(static_cast<int>(c.values.size()), t.num_rows);
      EXPECT_FALSE(c.labels.empty());
    }
  }
}

TEST(TableGeneratorTest, ColumnNamesUniqueWithinTable) {
  TableGenerator gen(DatasetProfile::GitLike(30), Reg());
  Rng rng(10);
  for (int i = 0; i < 20; ++i) {
    TableSpec t = gen.GenerateTable(rng);
    std::unordered_set<std::string> names;
    for (const auto& c : t.columns) {
      EXPECT_TRUE(names.insert(c.name).second) << c.name;
    }
  }
}

TEST(DatasetTest, DeterministicForSameSeed) {
  Dataset a = GenerateDataset(DatasetProfile::WikiLike(20));
  Dataset b = GenerateDataset(DatasetProfile::WikiLike(20));
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].name, b.tables[i].name);
    ASSERT_EQ(a.tables[i].columns.size(), b.tables[i].columns.size());
    for (size_t c = 0; c < a.tables[i].columns.size(); ++c) {
      EXPECT_EQ(a.tables[i].columns[c].name, b.tables[i].columns[c].name);
      EXPECT_EQ(a.tables[i].columns[c].values, b.tables[i].columns[c].values);
    }
  }
  EXPECT_EQ(a.train, b.train);
}

TEST(DatasetTest, SplitsPartitionTables) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(50));
  EXPECT_EQ(ds.train.size() + ds.valid.size() + ds.test.size(),
            ds.tables.size());
  std::unordered_set<int> all;
  for (int i : ds.train) all.insert(i);
  for (int i : ds.valid) all.insert(i);
  for (int i : ds.test) all.insert(i);
  EXPECT_EQ(all.size(), ds.tables.size());
  EXPECT_NEAR(static_cast<double>(ds.train.size()) / ds.tables.size(), 0.8,
              0.05);
}

TEST(DatasetTest, WikiLikeHasNoNullColumns) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(40));
  EXPECT_EQ(ds.NullColumnRatio(Reg()), 0.0);
}

TEST(DatasetTest, GitLikeNullRatioNearTarget) {
  Dataset ds = GenerateDataset(DatasetProfile::GitLike(200));
  EXPECT_NEAR(ds.NullColumnRatio(Reg()), 0.3156, 0.04);
}

TEST(DatasetTest, TableNamesUniqueAcrossCorpus) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(60));
  std::unordered_set<std::string> names;
  for (const auto& t : ds.tables) {
    EXPECT_TRUE(names.insert(t.name).second) << t.name;
  }
}

TEST(RetainedTypesTest, SelectIsDeterministicAndSized) {
  auto a = SelectRetainedTypes(Reg(), 10, 42);
  auto b = SelectRetainedTypes(Reg(), 10, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 10u);
  for (int id : a) EXPECT_NE(id, Reg().null_type_id());
}

TEST(RetainedTypesTest, ApplyRelabelsOutsideTypesToNull) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(40));
  auto retained = SelectRetainedTypes(Reg(), 5, 0);
  Dataset tuned = ApplyRetainedTypes(ds, retained, Reg());
  std::unordered_set<int> keep(retained.begin(), retained.end());
  ASSERT_EQ(tuned.tables.size(), ds.tables.size());
  for (const auto& t : tuned.tables) {
    for (const auto& c : t.columns) {
      ASSERT_FALSE(c.labels.empty());
      for (int l : c.labels) {
        EXPECT_TRUE(keep.count(l) != 0 || l == Reg().null_type_id());
      }
    }
  }
  // Shrinking the retained set raises the null ratio.
  EXPECT_GT(tuned.NullColumnRatio(Reg()), 0.5);
}

TEST(RetainedTypesTest, FullSetIsIdentityOnLabels) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(20));
  auto retained = SelectRetainedTypes(Reg(), Reg().size() - 1, 0);
  Dataset tuned = ApplyRetainedTypes(ds, retained, Reg());
  for (size_t i = 0; i < ds.tables.size(); ++i) {
    for (size_t c = 0; c < ds.tables[i].columns.size(); ++c) {
      EXPECT_EQ(tuned.tables[i].columns[c].labels,
                ds.tables[i].columns[c].labels);
    }
  }
}

TEST(CorpusTest, DocumentsCoverTables) {
  Dataset ds = GenerateDataset(DatasetProfile::WikiLike(15));
  auto docs = BuildCorpusDocuments(ds);
  EXPECT_EQ(docs.size(), ds.tables.size());
  for (const auto& d : docs) EXPECT_FALSE(d.empty());
  auto limited = BuildCorpusDocuments(ds, 5);
  EXPECT_EQ(limited.size(), 5u);
}

TEST(DomainTest, AllDomainTypeNamesResolve) {
  for (const auto& d : BuiltinDomains()) {
    for (const auto& t : d.typical_types) {
      EXPECT_TRUE(Reg().IdByName(t).ok()) << d.name << " -> " << t;
    }
  }
}

TEST(DomainTest, TenDomains) {
  EXPECT_EQ(BuiltinDomains().size(), 10u);
}

}  // namespace
}  // namespace taste::data
