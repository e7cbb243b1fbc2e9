#include "obs/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/exporters.h"

namespace cloudybench::obs {

namespace {

struct TrackState {
  std::vector<const Span*> spans;  // recording order
  const Span* root = nullptr;      // first kTxn span on the track
};

struct Frame {
  const Span* span;
  int node;
  int64_t child_us = 0;  // sim-time covered by direct children
};

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

}  // namespace

void WalkSpanStacks(const TraceRecorder& recorder, SpanStackVisitor& visitor) {
  // Bucket closed spans by track, preserving recording order (std::map:
  // ascending track id, itself allocation-ordered and deterministic).
  std::map<uint64_t, TrackState> tracks;
  for (const Span& span : recorder.spans()) {
    if (span.end_us < 0) continue;  // still open; cannot be attributed
    TrackState& state = tracks[span.track];
    state.spans.push_back(&span);
    if (state.root == nullptr && span.layer == Layer::kTxn) state.root = &span;
  }

  std::vector<Frame> stack;

  auto close_top = [&visitor, &stack] {
    Frame done = stack.back();
    stack.pop_back();
    int64_t dur = done.span->end_us - done.span->begin_us;
    visitor.OnClose(*done.span, done.node, dur - done.child_us);
    if (!stack.empty()) stack.back().child_us += dur;
  };

  for (auto& [track, state] : tracks) {
    if (!visitor.OnTrack(state.root)) continue;
    stack.clear();
    for (const Span* span : state.spans) {
      // The top is done once it ended at or before this span begins —
      // unless the two coincide in a way that still nests (an abort closes
      // the root at the same sim time as an inner span).
      while (!stack.empty() && stack.back().span->end_us <= span->begin_us &&
             !(stack.back().span->end_us >= span->end_us &&
               stack.back().span->begin_us <= span->begin_us)) {
        close_top();
      }
      Frame frame;
      frame.span = span;
      frame.node = visitor.OnOpen(*span, stack.empty() ? 0 : stack.back().node);
      stack.push_back(frame);
    }
    while (!stack.empty()) close_top();
  }
}

Profiler Profiler::FromTrace(const TraceRecorder& recorder) {
  // Merges every track into one tree: OnOpen finds (or creates) the
  // parent node's child for the span's (name, layer), OnClose charges it.
  class TreeBuilder : public SpanStackVisitor {
   public:
    explicit TreeBuilder(Profiler* profile) : profile_(profile) {}

    bool OnTrack(const Span*) override { return true; }

    // Fan-out per node is small (a handful of distinct child names), so a
    // linear scan beats a map and keeps nodes_ the only allocation.
    int OnOpen(const Span& span, int parent) override {
      std::vector<Node>& nodes = profile_->nodes_;
      for (int c : nodes[static_cast<size_t>(parent)].children) {
        const Node& node = nodes[static_cast<size_t>(c)];
        if (node.layer == span.layer &&
            std::strcmp(node.name, span.name) == 0) {
          return c;
        }
      }
      int id = static_cast<int>(nodes.size());
      Node node;
      node.name = span.name;
      node.layer = span.layer;
      node.parent = parent;
      nodes.push_back(node);
      nodes[static_cast<size_t>(parent)].children.push_back(id);
      return id;
    }

    void OnClose(const Span& span, int id, int64_t exclusive_us) override {
      Node& node = profile_->nodes_[static_cast<size_t>(id)];
      node.count += 1;
      node.inclusive_us += span.end_us - span.begin_us;
      node.exclusive_us += exclusive_us;
    }

   private:
    Profiler* profile_;
  };

  Profiler profile;
  profile.nodes_.push_back(Node{});  // synthetic root at index 0
  TreeBuilder builder(&profile);
  WalkSpanStacks(recorder, builder);

  // Deterministic export order: children sorted by (name, layer). Node ids
  // reflect discovery order, which can differ between traces that produce
  // the same tree, so every walk below goes through these sorted lists.
  for (Node& node : profile.nodes_) {
    std::sort(node.children.begin(), node.children.end(),
              [&profile](int a, int b) {
                const Node& na = profile.nodes_[static_cast<size_t>(a)];
                const Node& nb = profile.nodes_[static_cast<size_t>(b)];
                int cmp = std::strcmp(na.name, nb.name);
                if (cmp != 0) return cmp < 0;
                return na.layer < nb.layer;
              });
  }
  return profile;
}

int64_t Profiler::total_exclusive_us() const {
  int64_t total = 0;
  for (const Node& node : nodes_) total += node.exclusive_us;
  return total;
}

int64_t Profiler::ExclusiveUsByLayer(Layer layer) const {
  int64_t total = 0;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].layer == layer) total += nodes_[i].exclusive_us;
  }
  return total;
}

std::string Profiler::CollapsedStack() const {
  // One line per node: "stack;path <exclusive_sim_us>". flamegraph.pl and
  // speedscope both read this directly; inclusive time is recovered by
  // summation, so only exclusive weights are emitted.
  std::string out;
  struct Item {
    int node;
    std::string path;
  };
  std::vector<Item> work;
  const Node& root = nodes_[0];
  for (auto it = root.children.rbegin(); it != root.children.rend(); ++it) {
    work.push_back(Item{*it, nodes_[static_cast<size_t>(*it)].name});
  }
  while (!work.empty()) {
    Item item = std::move(work.back());
    work.pop_back();
    const Node& node = nodes_[static_cast<size_t>(item.node)];
    out += item.path;
    out += ' ';
    AppendInt(&out, node.exclusive_us);
    out += '\n';
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      work.push_back(
          Item{*it, item.path + ";" + nodes_[static_cast<size_t>(*it)].name});
    }
  }
  return out;
}

std::string Profiler::ChromeTraceJson() const {
  // The aggregated tree as a synthetic icicle: every node is one complete
  // event whose duration is its inclusive sim-time; children pack
  // left-to-right from their parent's start, so the gap at the right edge
  // of a parent is exactly its exclusive time.
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"cloudybench-profile\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"merged stacks (sim time)\"}}";
  struct Item {
    int node;
    int64_t start;
  };
  std::vector<Item> work;
  int64_t cursor = 0;
  const Node& root = nodes_[0];
  for (auto it = root.children.rbegin(); it != root.children.rend(); ++it) {
    work.push_back(Item{*it, 0});
  }
  while (!work.empty()) {
    Item item = work.back();
    work.pop_back();
    const Node& node = nodes_[static_cast<size_t>(item.node)];
    int64_t start;
    if (node.parent == 0) {
      start = cursor;
      cursor += node.inclusive_us;
    } else {
      start = item.start;
    }
    out += ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    AppendInt(&out, start);
    out += ",\"dur\":";
    AppendInt(&out, node.inclusive_us);
    out += ",\"cat\":\"";
    out += LayerName(node.layer);
    out += "\",\"name\":\"";
    out += node.name;
    out += "\",\"args\":{\"count\":";
    AppendInt(&out, node.count);
    out += ",\"exclusive_us\":";
    AppendInt(&out, node.exclusive_us);
    out += "}}";
    int64_t child_start = start;
    // Children must be emitted in sorted order right after their parent
    // (depth-first), so push them reversed with precomputed starts.
    std::vector<Item> kids;
    kids.reserve(node.children.size());
    for (int c : node.children) {
      kids.push_back(Item{c, child_start});
      child_start += nodes_[static_cast<size_t>(c)].inclusive_us;
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      work.push_back(*it);
    }
  }
  out += "\n]}\n";
  return out;
}

util::Status WriteProfileCollapsedFile(const Profiler& profile,
                                       const std::string& path) {
  return WriteStringFile(path, profile.CollapsedStack());
}

util::Status WriteProfileChromeTraceFile(const Profiler& profile,
                                         const std::string& path) {
  return WriteStringFile(path, profile.ChromeTraceJson());
}

}  // namespace cloudybench::obs
