#include "vtab/virtual_table.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"

namespace wsq {
namespace {

// Minimal virtual table used to test the registry and interface
// contracts without pulling in the WSQ web tables.
class FakeTable : public VirtualTable {
 public:
  explicit FakeTable(std::string name)
      : name_(std::move(name)), destination_("fake") {}

  const std::string& name() const override { return name_; }
  const std::string& destination() const override { return destination_; }

  Schema SchemaForTerms(size_t n) const override {
    Schema s;
    s.AddColumn(Column("SearchExp", TypeId::kString, name_));
    for (size_t i = 1; i <= n; ++i) {
      s.AddColumn(Column(StrFormat("T%zu", i), TypeId::kString, name_));
    }
    s.AddColumn(Column("Out", TypeId::kInt64, name_));
    return s;
  }

  size_t NumOutputColumns() const override { return 1; }
  bool SingleRowOutput() const override { return true; }

  using VirtualTable::SubmitAsync;
  CallId SubmitAsync(const VTableRequest& request, ReqPump* pump,
                     int64_t timeout_micros) override {
    last_timeout_micros = timeout_micros;
    int64_t n = static_cast<int64_t>(request.terms.size());
    return pump->Register(destination_, [n](CallCompletion done) {
      done(CallResult{Status::OK(), {Row({Value::Int(n)})}});
    });
  }

  int64_t last_timeout_micros = -1;

 private:
  std::string name_;
  std::string destination_;
};

TEST(VirtualTableRegistryTest, RegisterAndGet) {
  VirtualTableRegistry registry;
  ASSERT_TRUE(
      registry.Register(std::make_unique<FakeTable>("WebCount")).ok());
  auto t = registry.Get("WebCount");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "WebCount");
}

TEST(VirtualTableRegistryTest, LookupCaseInsensitive) {
  VirtualTableRegistry registry;
  ASSERT_TRUE(
      registry.Register(std::make_unique<FakeTable>("WebCount")).ok());
  EXPECT_TRUE(registry.Get("webcount").ok());
  EXPECT_TRUE(registry.Has("WEBCOUNT"));
}

TEST(VirtualTableRegistryTest, DuplicateRejected) {
  VirtualTableRegistry registry;
  ASSERT_TRUE(
      registry.Register(std::make_unique<FakeTable>("WebCount")).ok());
  auto s = registry.Register(std::make_unique<FakeTable>("webcount"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(VirtualTableRegistryTest, MissingNotFound) {
  VirtualTableRegistry registry;
  EXPECT_FALSE(registry.Get("WebPages").ok());
  EXPECT_FALSE(registry.Has("WebPages"));
}

TEST(VirtualTableRegistryTest, ListInRegistrationOrder) {
  VirtualTableRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_unique<FakeTable>("B")).ok());
  ASSERT_TRUE(registry.Register(std::make_unique<FakeTable>("A")).ok());
  auto names = registry.List();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "B");
  EXPECT_EQ(names[1], "A");
}

TEST(VirtualTableTest, SchemaFamilyGrowsWithTerms) {
  FakeTable t("WebCount");
  EXPECT_EQ(t.SchemaForTerms(1).NumColumns(), 3u);  // SearchExp, T1, Out
  EXPECT_EQ(t.SchemaForTerms(3).NumColumns(), 5u);
  EXPECT_EQ(t.SchemaForTerms(2).column(2).name, "T2");
}

TEST(VirtualTableTest, SequentialScanPrefixesInputsToCallRows) {
  // EVScan takes the OUTPUT rows of its one pump call and prefixes the
  // input columns, so its tuples are complete: [SearchExp, T1, T2, Out].
  FakeTable t("WebCount");
  ReqPump pump;
  EVScanNode node(&t, "WebCount", 2);
  node.search_exp = "%1 near %2";
  node.constant_terms[1] = Value::Str("colorado");
  node.constant_terms[2] = Value::Str("knuth");
  ExecContext ctx;
  ctx.pump = &pump;
  EVScanOperator scan(&node, &ctx);
  ASSERT_TRUE(scan.Open().ok());
  Row row;
  ASSERT_TRUE(*scan.Next(&row));
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.value(0).AsString(), "%1 near %2");
  EXPECT_EQ(row.value(2).AsString(), "knuth");
  EXPECT_EQ(row.value(3).AsInt(), 2);
  EXPECT_FALSE(*scan.Next(&row));
  ASSERT_TRUE(scan.Close().ok());
  EXPECT_EQ(ctx.stats.external_calls, 1u);
  // The scan took its call, so nothing is left for ExecutePlan's sweep.
  EXPECT_TRUE(ctx.issued_calls.empty());
  EXPECT_EQ(pump.pending_results(), 0u);
}

TEST(VirtualTableTest, AsyncSubmitRoutesThroughPump) {
  FakeTable t("WebCount");
  ReqPump pump;
  VTableRequest req;
  req.terms = {"a", "b", "c"};
  CallId id = t.SubmitAsync(req, &pump);
  CallResult r = pump.TakeBlocking(id);
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].value(0).AsInt(), 3);
}

}  // namespace
}  // namespace wsq
