#include "storage/btree.h"

#include <algorithm>

namespace sqopt {

namespace {

// Total-order helpers over Value (operator< orders by type class then
// value; numerics interleave).
bool KeyLess(const Value& a, const Value& b) { return a < b; }
bool KeyEq(const Value& a, const Value& b) { return !(a < b) && !(b < a); }

}  // namespace

struct BTree::Node {
  OwnerStamp owner = 0;  // see storage/cow.h
  bool leaf = true;
  // Leaf: entry keys (sorted, duplicates allowed) parallel to `rows`.
  // Internal: separator keys; children[i] holds keys <= keys[i] (with
  // duplicates allowed to sit on either side), children.back() the
  // rest.
  std::vector<Value> keys;
  std::vector<int64_t> rows;
  std::vector<std::shared_ptr<Node>> children;
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

  // Positions at the first entry >= *start, or at the first entry when
  // `start` is null. Lookup routing takes the first separator >= key,
  // so the leftmost of a run of duplicates is reached.
  Cursor(const Node* root, const Value* start) {
    const Node* node = root;
    while (!node->leaf) {
      size_t idx = 0;
      if (start != nullptr) {
        idx = static_cast<size_t>(
            std::lower_bound(node->keys.begin(), node->keys.end(), *start,
                             KeyLess) -
            node->keys.begin());
      }
      path_.push_back({node, idx});
      node = node->children[idx].get();
    }
    leaf_ = node;
    if (start != nullptr) {
      pos_ = static_cast<size_t>(
          std::lower_bound(leaf_->keys.begin(), leaf_->keys.end(), *start,
                           KeyLess) -
          leaf_->keys.begin());
    }
    SkipExhausted();
  }

  bool Valid() const { return leaf_ != nullptr; }
  const Value& key() const { return leaf_->keys[pos_]; }
  int64_t row() const { return leaf_->rows[pos_]; }
  // Frames from the root down to the current leaf's parent.
  const std::vector<Frame>& path() const { return path_; }
  size_t pos() const { return pos_; }

  void Next() {
    ++pos_;
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
  // runs parallel to each level: the smallest key under that node,
  // which becomes the separator to its left one level up.
  std::vector<std::shared_ptr<Node>> level;
  std::vector<Value> mins;
  for (size_t begin = 0; begin < entries.size(); begin += max_keys) {
    const size_t end = std::min(begin + max_keys, entries.size());
    auto leaf = fresh(/*leaf=*/true);
    leaf->keys.reserve(end - begin);
    leaf->rows.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      leaf->keys.push_back(std::move(entries[i].first));
      leaf->rows.push_back(entries[i].second);
    }
    mins.push_back(leaf->keys.front());
    level.push_back(std::move(leaf));
  }

  while (level.size() > 1) {
    std::vector<std::shared_ptr<Node>> parents;
    std::vector<Value> parent_mins;
    const size_t fanout = static_cast<size_t>(tree.order_);
    for (size_t begin = 0; begin < level.size(); begin += fanout) {
      const size_t end = std::min(begin + fanout, level.size());
      auto parent = fresh(/*leaf=*/false);
      parent_mins.push_back(mins[begin]);
      for (size_t i = begin; i < end; ++i) {
        // Separator between children i-1 and i = smallest key under
        // child i (the convention SplitChild's leaf case establishes).
        if (i > begin) parent->keys.push_back(std::move(mins[i]));
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

namespace {

// Child index for descending on insert: first separator strictly
// greater than `key`, so a new duplicate lands after its equal run.
int RouteIndex(const std::vector<Value>& separators, const Value& key) {
  return static_cast<int>(std::upper_bound(separators.begin(),
                                           separators.end(), key, KeyLess) -
                          separators.begin());
}

}  // namespace

void BTree::SplitChild(Node* parent, int index) {
  Node& child = Writable(parent->children[index]);
  auto right = std::make_shared<Node>();
  right->owner = owner_;
  right->leaf = child.leaf;
  size_t mid = child.keys.size() / 2;

  if (child.leaf) {
    // Right leaf takes entries [mid, end); separator is a copy of the
    // right leaf's first key.
    right->keys.assign(child.keys.begin() + mid, child.keys.end());
    right->rows.assign(child.rows.begin() + mid, child.rows.end());
    child.keys.resize(mid);
    child.rows.resize(mid);
    parent->keys.insert(parent->keys.begin() + index, right->keys.front());
  } else {
    // Internal: median key moves up; right takes keys (mid, end) and
    // children [mid+1, end), still shared with any other version.
    Value median = child.keys[mid];
    right->keys.assign(child.keys.begin() + mid + 1, child.keys.end());
    right->children.assign(
        std::make_move_iterator(child.children.begin() + mid + 1),
        std::make_move_iterator(child.children.end()));
    child.keys.resize(mid);
    child.children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + index, std::move(median));
  }
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(right));
}

void BTree::Insert(const Value& key, int64_t row) {
  const size_t max_keys = static_cast<size_t>(order_ - 1);

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
    int idx = RouteIndex(node->keys, key);
    if (node->children[idx]->keys.size() >= max_keys) {
      SplitChild(node, idx);
      // The new separator sits at node->keys[idx]; re-route.
      if (!KeyLess(key, node->keys[idx])) ++idx;
    }
    node = &Writable(node->children[idx]);
  }

  // Insert after any equal run (stable for duplicates).
  auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key,
                             KeyLess);
  size_t pos = static_cast<size_t>(it - node->keys.begin());
  node->keys.insert(it, key);
  node->rows.insert(node->rows.begin() + pos, row);
  ++size_;
}

bool BTree::Remove(const Value& key, int64_t row) {
  // Find the entry read-only first, so a miss copies nothing; then make
  // the recorded root-to-leaf path writable by child index (a copied
  // node keeps its children in place).
  Cursor cursor(root_.get(), &key);
  while (cursor.Valid() && KeyEq(cursor.key(), key) && cursor.row() != row) {
    cursor.Next();
  }
  if (!cursor.Valid() || !KeyEq(cursor.key(), key)) return false;
  Node* node = &Writable(root_);
  for (const Cursor::Frame& frame : cursor.path()) {
    node = &Writable(node->children[frame.child]);
  }
  node->keys.erase(node->keys.begin() + cursor.pos());
  node->rows.erase(node->rows.begin() + cursor.pos());
  --size_;
  return true;
}

std::vector<int64_t> BTree::Equal(const Value& key) const {
  std::vector<int64_t> out;
  for (Cursor c(root_.get(), &key); c.Valid() && KeyEq(c.key(), key);
       c.Next()) {
    out.push_back(c.row());
  }
  return out;
}

std::vector<int64_t> BTree::LessThan(const Value& bound,
                                     bool inclusive) const {
  std::vector<int64_t> out;
  for (Cursor c(root_.get(), nullptr); c.Valid(); c.Next()) {
    const bool in = inclusive ? !KeyLess(bound, c.key())
                              : KeyLess(c.key(), bound);
    if (!in) break;
    out.push_back(c.row());
  }
  return out;
}

std::vector<int64_t> BTree::GreaterThan(const Value& bound,
                                        bool inclusive) const {
  std::vector<int64_t> out;
  Cursor c(root_.get(), &bound);
  if (!inclusive) {
    while (c.Valid() && KeyEq(c.key(), bound)) c.Next();
  }
  for (; c.Valid(); c.Next()) out.push_back(c.row());
  return out;
}

std::vector<std::pair<Value, int64_t>> BTree::Scan() const {
  std::vector<std::pair<Value, int64_t>> out;
  out.reserve(size_);
  for (Cursor c(root_.get(), nullptr); c.Valid(); c.Next()) {
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
  // 1. Uniform leaf depth + ordering within nodes + separator bounds.
  struct Frame {
    const Node* node;
    int depth;
    const Value* lo;  // keys must be >= *lo (or null)
    const Value* hi;  // keys must be <= *hi (or null)
  };
  int leaf_depth = -1;
  std::vector<Frame> stack = {{root_.get(), 0, nullptr, nullptr}};
  size_t leaf_entries = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Node* node = f.node;
    if (node->keys.size() >= static_cast<size_t>(order_)) return false;
    // Keys sorted (non-strict: duplicates allowed).
    for (size_t i = 1; i < node->keys.size(); ++i) {
      if (KeyLess(node->keys[i], node->keys[i - 1])) return false;
    }
    for (const Value& key : node->keys) {
      if (f.lo != nullptr && KeyLess(key, *f.lo)) return false;
      if (f.hi != nullptr && KeyLess(*f.hi, key)) return false;
    }
    if (node->leaf) {
      if (node->keys.size() != node->rows.size()) return false;
      if (!node->children.empty()) return false;
      if (leaf_depth == -1) leaf_depth = f.depth;
      if (leaf_depth != f.depth) return false;
      leaf_entries += node->keys.size();
    } else {
      if (node->children.size() != node->keys.size() + 1) return false;
      for (size_t i = 0; i < node->children.size(); ++i) {
        const Value* lo = (i == 0) ? f.lo : &node->keys[i - 1];
        const Value* hi =
            (i == node->keys.size()) ? f.hi : &node->keys[i];
        stack.push_back({node->children[i].get(), f.depth + 1, lo, hi});
      }
    }
  }
  if (leaf_entries != size_) return false;

  // 2. The cursor yields a sorted full scan.
  auto scan = Scan();
  if (scan.size() != size_) return false;
  for (size_t i = 1; i < scan.size(); ++i) {
    if (KeyLess(scan[i].first, scan[i - 1].first)) return false;
  }
  return true;
}

}  // namespace sqopt
