// Intrusive list tests.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/intrusive_list.h"

namespace para {
namespace {

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
  ListNode<> link;
};

using ItemList = IntrusiveList<Item, &Item::link>;

TEST(IntrusiveListTest, PushPopFifo) {
  ItemList list;
  Item a(1), b(2), c(3);
  EXPECT_TRUE(list.empty());
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveListTest, PushFront) {
  ItemList list;
  Item a(1), b(2);
  list.PushFront(&a);
  list.PushFront(&b);
  EXPECT_EQ(list.Front()->value, 2);
  EXPECT_EQ(list.Back()->value, 1);
  list.Clear();
}

TEST(IntrusiveListTest, RemoveMiddle) {
  ItemList list;
  Item a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_FALSE(b.link.in_list());
}

TEST(IntrusiveListTest, UnlinkIsIdempotent) {
  Item a(1);
  a.link.Unlink();  // unlinked node: no-op
  ItemList list;
  list.PushBack(&a);
  a.link.Unlink();
  a.link.Unlink();
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, InsertSortedKeepsOrder) {
  ItemList list;
  Item a(5), b(1), c(3), d(3);
  auto less = [](Item* x, Item* y) { return x->value < y->value; };
  list.InsertSorted(&a, less);
  list.InsertSorted(&b, less);
  list.InsertSorted(&c, less);
  list.InsertSorted(&d, less);  // equal keys: FIFO within
  std::vector<int> order;
  for (Item* item : list) {
    order.push_back(item->value);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 3, 5}));
  // d was inserted after c.
  list.Remove(&b);
  EXPECT_EQ(list.PopFront(), &c);
  EXPECT_EQ(list.PopFront(), &d);
  list.Clear();
}

TEST(IntrusiveListTest, Iteration) {
  ItemList list;
  Item items[5] = {Item(0), Item(1), Item(2), Item(3), Item(4)};
  for (auto& item : items) {
    list.PushBack(&item);
  }
  int expected = 0;
  for (Item* item : list) {
    EXPECT_EQ(item->value, expected++);
  }
  EXPECT_EQ(expected, 5);
  list.Clear();
}

}  // namespace
}  // namespace para
