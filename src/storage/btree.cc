#include "storage/btree.h"

#include <algorithm>
#include <optional>

namespace sqopt {

namespace {

thread_local uint64_t key_comparisons = 0;

// Total-order helpers over Value (Value::Order orders by type class
// then value; numerics interleave), and over (key, row) entries.
bool KeyLess(const Value& a, const Value& b) {
  ++key_comparisons;
  return a < b;
}
bool EntryLess(const Value& ka, int64_t ra, const Value& kb, int64_t rb) {
  ++key_comparisons;
  const int order = ka.Order(kb);
  return order != 0 ? order < 0 : ra < rb;
}

}  // namespace

uint64_t BTree::KeyComparisons() { return key_comparisons; }

struct BTree::Node {
  OwnerStamp owner = 0;  // see storage/cow.h
  bool leaf = true;
  // Leaf: entries as parallel (key, row) arrays, sorted by the pair.
  // Internal: separator pairs; every entry under children[i] is <=
  // (keys[i], rows[i]) and every entry under children[i + 1] is >= it,
  // children.back() the rest.
  std::vector<Value> keys;
  std::vector<int64_t> rows;
  std::vector<std::shared_ptr<Node>> children;

  // Index of the first entry (leaf) or child (internal) at which
  // `before(key, row)` stops holding. `before` must hold on a prefix
  // of the (key, row) order. For an internal node, every child left of
  // the result holds only entries that satisfy `before`.
  template <typename Before>
  size_t Seek(Before before) const {
    size_t lo = 0, hi = keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (before(keys[mid], rows[mid])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
};

// In-order iterator over the entries: the root-to-leaf path of (node,
// child index) frames plus a position in the leaf. Advancing past a
// leaf pops to the nearest frame with a right sibling and descends to
// that sibling's leftmost leaf, so a full scan is O(nodes + entries).
class BTree::Cursor {
 public:
  struct Frame {
    const Node* node;
    size_t child;
  };

  // Positions at the first entry for which `before(key, row)` is false
  // (see Node::Seek), or at the end.
  template <typename Before>
  Cursor(const Node* root, Before before) {
    const Node* node = root;
    while (!node->leaf) {
      const size_t idx = node->Seek(before);
      path_.push_back({node, idx});
      node = node->children[idx].get();
    }
    leaf_ = node;
    pos_ = node->Seek(before);
    SkipExhausted();
  }

  // Positions at the first entry.
  explicit Cursor(const Node* root)
      : Cursor(root, [](const Value&, int64_t) { return false; }) {}

  bool Valid() const { return leaf_ != nullptr; }
  const Value& key() const { return leaf_->keys[pos_]; }
  int64_t row() const { return leaf_->rows[pos_]; }
  const Node& leaf() const { return *leaf_; }
  // Frames from the root down to the current leaf's parent.
  const std::vector<Frame>& path() const { return path_; }
  size_t pos() const { return pos_; }

  void Next() {
    ++pos_;
    SkipExhausted();
  }

  // Moves to the first entry of the next non-empty leaf.
  void NextLeaf() {
    pos_ = leaf_->keys.size();
    SkipExhausted();
  }

 private:
  // Moves past exhausted (possibly empty, after lazy deletes) leaves.
  void SkipExhausted() {
    while (leaf_ != nullptr && pos_ >= leaf_->keys.size()) {
      while (!path_.empty() &&
             path_.back().child + 1 >= path_.back().node->children.size()) {
        path_.pop_back();
      }
      if (path_.empty()) {
        leaf_ = nullptr;
        return;
      }
      Frame& frame = path_.back();
      ++frame.child;
      const Node* node = frame.node->children[frame.child].get();
      while (!node->leaf) {
        path_.push_back({node, 0});
        node = node->children.front().get();
      }
      leaf_ = node;
      pos_ = 0;
    }
  }

  std::vector<Frame> path_;
  const Node* leaf_ = nullptr;
  size_t pos_ = 0;
};

BTree::BTree(int order) : order_(order < 4 ? 4 : order) {
  root_ = std::make_shared<Node>();
  root_->owner = owner_;
}

BTree::~BTree() = default;
BTree::BTree(BTree&&) noexcept = default;
BTree& BTree::operator=(BTree&&) noexcept = default;

BTree BTree::Clone() const {
  BTree copy(*this);
  copy.owner_ = NewOwnerStamp();
  owner_ = NewOwnerStamp();
  return copy;
}

BTree::Node& BTree::Writable(std::shared_ptr<Node>& slot) {
  return WritableCopy(slot, owner_);
}

BTree BTree::BuildFromSorted(std::vector<std::pair<Value, int64_t>> entries,
                             int order) {
  BTree tree(order);
  if (entries.empty()) return tree;
  const size_t max_keys = static_cast<size_t>(tree.order_ - 1);
  auto fresh = [&tree](bool leaf) {
    auto node = std::make_shared<Node>();
    node->owner = tree.owner_;
    node->leaf = leaf;
    return node;
  };

  // Leaves, left to right at full legal fill (Insert splits a node
  // BEFORE it exceeds max_keys, so full leaves stay mutable). `mins`
  // runs parallel to each level: the smallest entry under that node,
  // which becomes the separator to its left one level up.
  std::vector<std::shared_ptr<Node>> level;
  std::vector<std::pair<Value, int64_t>> mins;
  for (size_t begin = 0; begin < entries.size(); begin += max_keys) {
    const size_t end = std::min(begin + max_keys, entries.size());
    auto leaf = fresh(/*leaf=*/true);
    leaf->keys.reserve(end - begin);
    leaf->rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      leaf->keys.push_back(std::move(entries[i].first));
      leaf->rows.push_back(entries[i].second);
    }
    mins.emplace_back(leaf->keys.front(), leaf->rows.front());
    level.push_back(std::move(leaf));
  }

  while (level.size() > 1) {
    std::vector<std::shared_ptr<Node>> parents;
    std::vector<std::pair<Value, int64_t>> parent_mins;
    const size_t fanout = static_cast<size_t>(tree.order_);
    for (size_t begin = 0; begin < level.size(); begin += fanout) {
      const size_t end = std::min(begin + fanout, level.size());
      auto parent = fresh(/*leaf=*/false);
      parent_mins.push_back(mins[begin]);
      for (size_t i = begin; i < end; ++i) {
        // Separator between children i-1 and i = smallest entry under
        // child i (the convention SplitChild's leaf case establishes).
        if (i > begin) {
          parent->keys.push_back(std::move(mins[i].first));
          parent->rows.push_back(mins[i].second);
        }
        parent->children.push_back(std::move(level[i]));
      }
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
    mins = std::move(parent_mins);
  }
  tree.root_ = std::move(level.front());
  tree.size_ = entries.size();
  return tree;
}

void BTree::SplitChild(Node* parent, int index) {
  Node& child = Writable(parent->children[index]);
  auto right = std::make_shared<Node>();
  right->owner = owner_;
  right->leaf = child.leaf;
  size_t mid = child.keys.size() / 2;

  if (child.leaf) {
    // Right leaf takes entries [mid, end); separator is a copy of the
    // right leaf's first entry.
    right->keys.assign(child.keys.begin() + mid, child.keys.end());
    right->rows.assign(child.rows.begin() + mid, child.rows.end());
    child.keys.resize(mid);
    child.rows.resize(mid);
    parent->keys.insert(parent->keys.begin() + index, right->keys.front());
    parent->rows.insert(parent->rows.begin() + index, right->rows.front());
  } else {
    // Internal: median separator moves up; right takes separators
    // (mid, end) and children [mid+1, end), still shared with any other
    // version.
    Value median = child.keys[mid];
    const int64_t median_row = child.rows[mid];
    right->keys.assign(child.keys.begin() + mid + 1, child.keys.end());
    right->rows.assign(child.rows.begin() + mid + 1, child.rows.end());
    right->children.assign(
        std::make_move_iterator(child.children.begin() + mid + 1),
        std::make_move_iterator(child.children.end()));
    child.keys.resize(mid);
    child.rows.resize(mid);
    child.children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + index, std::move(median));
    parent->rows.insert(parent->rows.begin() + index, median_row);
  }
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(right));
}

void BTree::Insert(const Value& key, int64_t row) {
  const size_t max_keys = static_cast<size_t>(order_ - 1);
  // Descends past every entry <= (key, row), so an equal pair lands
  // after its run.
  auto not_after = [&](const Value& k, int64_t r) {
    return !EntryLess(key, row, k, r);
  };

  if (root_->keys.size() >= max_keys) {
    auto new_root = std::make_shared<Node>();
    new_root->owner = owner_;
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }

  // Top-down: every node on the path becomes writable (copied unless
  // this tree owns it) and full children split before the descent.
  Node* node = &Writable(root_);
  while (!node->leaf) {
    size_t idx = node->Seek(not_after);
    if (node->children[idx]->keys.size() >= max_keys) {
      SplitChild(node, static_cast<int>(idx));
      // The new separator sits at node->keys[idx]; re-route.
      if (not_after(node->keys[idx], node->rows[idx])) ++idx;
    }
    node = &Writable(node->children[idx]);
  }

  const size_t pos = node->Seek(not_after);
  node->keys.insert(node->keys.begin() + static_cast<long>(pos), key);
  node->rows.insert(node->rows.begin() + static_cast<long>(pos), row);
  ++size_;
}

bool BTree::Remove(const Value& key, int64_t row) {
  // Find the entry read-only first, by one descent on the pair, so a
  // miss copies nothing; then make the recorded root-to-leaf path
  // writable by child index (a copied node keeps its children in
  // place).
  Cursor cursor(root_.get(), [&](const Value& k, int64_t r) {
    return EntryLess(k, r, key, row);
  });
  if (!cursor.Valid() || cursor.row() != row || KeyLess(key, cursor.key())) {
    return false;
  }
  Node* node = &Writable(root_);
  for (const Cursor::Frame& frame : cursor.path()) {
    node = &Writable(node->children[frame.child]);
  }
  node->keys.erase(node->keys.begin() + static_cast<long>(cursor.pos()));
  node->rows.erase(node->rows.begin() + static_cast<long>(cursor.pos()));
  --size_;
  return true;
}

template <typename InRange>
void BTree::CollectRun(Cursor cursor, InRange in_range,
                       std::vector<int64_t>* out) {
  while (cursor.Valid()) {
    const Node& leaf = cursor.leaf();
    const auto first = leaf.keys.begin() + static_cast<long>(cursor.pos());
    const size_t end = static_cast<size_t>(
        std::partition_point(first, leaf.keys.end(), in_range) -
        leaf.keys.begin());
    out->insert(out->end(),
                leaf.rows.begin() + static_cast<long>(cursor.pos()),
                leaf.rows.begin() + static_cast<long>(end));
    if (end < leaf.keys.size()) return;
    cursor.NextLeaf();
  }
}

std::vector<int64_t> BTree::Equal(const Value& key) const {
  std::vector<int64_t> out;
  CollectRun(
      Cursor(root_.get(),
             [&](const Value& k, int64_t) { return KeyLess(k, key); }),
      [&](const Value& k) { return !KeyLess(key, k); }, &out);
  return out;
}

std::vector<int64_t> BTree::LessThan(const Value& bound,
                                     bool inclusive) const {
  std::vector<int64_t> out;
  CollectRun(
      Cursor(root_.get()),
      [&](const Value& k) {
        return inclusive ? !KeyLess(bound, k) : KeyLess(k, bound);
      },
      &out);
  return out;
}

std::vector<int64_t> BTree::GreaterThan(const Value& bound,
                                        bool inclusive) const {
  std::vector<int64_t> out;
  CollectRun(Cursor(root_.get(),
                    [&](const Value& k, int64_t) {
                      return inclusive ? KeyLess(k, bound)
                                       : !KeyLess(bound, k);
                    }),
             [](const Value&) { return true; }, &out);
  return out;
}

std::vector<std::pair<Value, int64_t>> BTree::Scan() const {
  std::vector<std::pair<Value, int64_t>> out;
  out.reserve(size_);
  for (Cursor c(root_.get()); c.Valid(); c.Next()) {
    out.emplace_back(c.key(), c.row());
  }
  return out;
}

int BTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

size_t BTree::num_nodes() const { return NodeIdentities().size(); }

std::vector<const void*> BTree::NodeIdentities() const {
  std::vector<const void*> out;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    out.push_back(node);
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return out;
}

bool BTree::CheckInvariants() const {
  // 1. Uniform leaf depth + (key, row) ordering within nodes +
  // separator bounds.
  struct Bound {
    const Value* key;
    int64_t row;
  };
  struct Frame {
    const Node* node;
    int depth;
    std::optional<Bound> lo;  // entries must be >= *lo
    std::optional<Bound> hi;  // entries must be <= *hi
  };
  int leaf_depth = -1;
  std::vector<Frame> stack = {{root_.get(), 0, std::nullopt, std::nullopt}};
  size_t leaf_entries = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node* node = f.node;
    if (node->keys.size() >= static_cast<size_t>(order_)) return false;
    if (node->keys.size() != node->rows.size()) return false;
    // Entries sorted (non-strict: equal pairs allowed).
    for (size_t i = 1; i < node->keys.size(); ++i) {
      if (EntryLess(node->keys[i], node->rows[i], node->keys[i - 1],
                    node->rows[i - 1])) {
        return false;
      }
    }
    for (size_t i = 0; i < node->keys.size(); ++i) {
      if (f.lo.has_value() && EntryLess(node->keys[i], node->rows[i],
                                        *f.lo->key, f.lo->row)) {
        return false;
      }
      if (f.hi.has_value() && EntryLess(*f.hi->key, f.hi->row,
                                        node->keys[i], node->rows[i])) {
        return false;
      }
    }
    if (node->leaf) {
      if (!node->children.empty()) return false;
      if (leaf_depth == -1) leaf_depth = f.depth;
      if (leaf_depth != f.depth) return false;
      leaf_entries += node->keys.size();
    } else {
      if (node->children.size() != node->keys.size() + 1) return false;
      for (size_t i = 0; i < node->children.size(); ++i) {
        std::optional<Bound> lo =
            i == 0 ? f.lo
                   : std::optional<Bound>(
                         Bound{&node->keys[i - 1], node->rows[i - 1]});
        std::optional<Bound> hi =
            i == node->keys.size()
                ? f.hi
                : std::optional<Bound>(Bound{&node->keys[i], node->rows[i]});
        stack.push_back({node->children[i].get(), f.depth + 1, lo, hi});
      }
    }
  }
  if (leaf_entries != size_) return false;

  // 2. The cursor yields a sorted full scan.
  auto scan = Scan();
  if (scan.size() != size_) return false;
  for (size_t i = 1; i < scan.size(); ++i) {
    if (EntryLess(scan[i].first, scan[i].second, scan[i - 1].first,
                  scan[i - 1].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace sqopt
