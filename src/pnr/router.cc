#include "pnr/router.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace fpsa
{

PathFinderRouter::PathFinderRouter(const RouterParams &params)
    : params_(params)
{
}

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Dijkstra state entry (reference algorithm). */
struct QueueEntry
{
    double cost;
    RrNodeId node;
    bool operator>(const QueueEntry &o) const { return cost > o.cost; }
};

/** A* state entry: f = g + heuristic, ordered by (f, node) so the pop
 *  order (and thus tie-breaking) is identical on every platform. */
struct AStarEntry
{
    double f;
    double g;
    RrNodeId node;
};

struct AStarGreater
{
    bool
    operator()(const AStarEntry &a, const AStarEntry &b) const
    {
        if (a.f != b.f)
            return a.f > b.f;
        return a.node > b.node;
    }
};

/** Per-node congestion bookkeeping shared across iterations. */
struct CongestionState
{
    std::vector<std::int64_t> usage;     //!< tracks in use
    std::vector<double> history;         //!< accumulated overuse
    const RrGraph *graph;

    explicit CongestionState(const RrGraph &g)
        : usage(g.nodeCount(), 0), history(g.nodeCount(), 0.0), graph(&g)
    {
    }

    bool
    capacitated(RrNodeId id) const
    {
        return graph->node(id).capacity > 0;
    }

    double
    nodeCost(RrNodeId id, int width, double pres_fac) const
    {
        const RrNode &n = graph->node(id);
        double cost = n.delay;
        if (capacitated(id)) {
            cost += history[static_cast<std::size_t>(id)];
            const std::int64_t over =
                usage[static_cast<std::size_t>(id)] + width - n.capacity;
            if (over > 0) {
                cost += pres_fac * n.delay *
                        (1.0 + static_cast<double>(over) / n.capacity);
            }
        }
        return cost;
    }
};

/**
 * Epoch-stamped search state: `newSearch()` is O(1), a node whose stamp
 * is stale reads as unvisited (dist = inf), so per-sink searches touch
 * only the nodes they actually expand instead of O(|V|) resets.
 */
struct SearchState
{
    std::vector<double> dist;
    std::vector<RrNodeId> prev;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;

    explicit SearchState(std::size_t n) : dist(n), prev(n), stamp(n, 0) {}

    void
    newSearch()
    {
        if (++epoch == 0) { // wrapped: invalidate every stale stamp
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
        }
    }

    bool
    visited(RrNodeId id) const
    {
        return stamp[static_cast<std::size_t>(id)] == epoch;
    }

    double
    distOf(RrNodeId id) const
    {
        return visited(id) ? dist[static_cast<std::size_t>(id)] : kInf;
    }

    void
    set(RrNodeId id, double d, RrNodeId p)
    {
        stamp[static_cast<std::size_t>(id)] = epoch;
        dist[static_cast<std::size_t>(id)] = d;
        prev[static_cast<std::size_t>(id)] = p;
    }
};

/**
 * The route tree of the net currently being (re)routed: membership and
 * parent pointers, epoch-stamped so starting the next net is O(1).
 */
struct RouteTree
{
    std::vector<RrNodeId> nodes;          //!< every node of the tree
    std::vector<RrNodeId> parent;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;

    explicit RouteTree(std::size_t n) : parent(n), stamp(n, 0) {}

    void
    reset()
    {
        nodes.clear();
        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
        }
    }

    bool
    contains(RrNodeId id) const
    {
        return stamp[static_cast<std::size_t>(id)] == epoch;
    }

    void
    add(RrNodeId id, RrNodeId par)
    {
        stamp[static_cast<std::size_t>(id)] = epoch;
        parent[static_cast<std::size_t>(id)] = par;
        nodes.push_back(id);
    }

    /** Full source..id node sequence through the tree. */
    std::vector<RrNodeId>
    pathTo(RrNodeId id) const
    {
        std::vector<RrNodeId> path;
        for (RrNodeId at = id; at != -1;
             at = parent[static_cast<std::size_t>(at)])
            path.push_back(at);
        std::reverse(path.begin(), path.end());
        return path;
    }
};

/** Half-perimeter of a net's placed bounding box (routing-order key). */
int
placedBbox(const Net &net, const Placement &placement)
{
    const auto &[dx, dy] = placement.of(net.driver);
    int min_x = dx, max_x = dx, min_y = dy, max_y = dy;
    for (BlockId s : net.sinks) {
        const auto &[sx, sy] = placement.of(s);
        min_x = std::min(min_x, sx);
        max_x = std::max(max_x, sx);
        min_y = std::min(min_y, sy);
        max_y = std::max(max_y, sy);
    }
    return (max_x - min_x) + (max_y - min_y);
}

/**
 * Stable net routing order: largest placed bounding box first (hard
 * nets claim tracks before easy ones fragment them), then widest, then
 * net id.  Fully determined by (netlist, placement), independent of
 * container iteration quirks, so results reproduce across platforms.
 */
std::vector<NetId>
routingOrder(const Netlist &netlist, const Placement &placement)
{
    std::vector<NetId> order(netlist.nets().size());
    std::vector<int> bbox(netlist.nets().size());
    for (NetId n = 0; n < static_cast<NetId>(order.size()); ++n) {
        order[static_cast<std::size_t>(n)] = n;
        bbox[static_cast<std::size_t>(n)] =
            placedBbox(netlist.net(n), placement);
    }
    std::sort(order.begin(), order.end(), [&](NetId a, NetId b) {
        const int ba = bbox[static_cast<std::size_t>(a)];
        const int bb = bbox[static_cast<std::size_t>(b)];
        if (ba != bb)
            return ba > bb;
        const int wa = netlist.net(a).width;
        const int wb = netlist.net(b).width;
        if (wa != wb)
            return wa > wb;
        return a < b;
    });
    return order;
}

/** Delay/wirelength extraction shared by both algorithms. */
void
finalizeResult(RoutingResult &result, const RrGraph &graph,
               const Netlist &netlist,
               const std::vector<std::vector<RrNodeId>> &net_nodes)
{
    double delay_sum = 0.0;
    for (std::size_t n = 0; n < result.nets.size(); ++n) {
        RoutedNet &routed = result.nets[n];
        NanoSeconds worst = 0.0;
        for (const auto &path : routed.sinkPaths) {
            NanoSeconds d = 0.0;
            for (RrNodeId id : path)
                d += graph.node(id).delay;
            worst = std::max(worst, d);
        }
        routed.delay = worst;
        routed.segmentsUsed = static_cast<int>(net_nodes[n].size());
        result.totalWirelength +=
            static_cast<std::int64_t>(netlist.net(static_cast<NetId>(n))
                                          .width) *
            routed.segmentsUsed;
        delay_sum += worst;
        result.maxNetDelay = std::max(result.maxNetDelay, worst);
    }
    result.avgNetDelay =
        result.nets.empty() ? 0.0 : delay_sum / result.nets.size();
}

} // namespace

RoutingResult
PathFinderRouter::route(const Netlist &netlist, const RrGraph &graph,
                        const Placement &placement) const
{
    if (params_.algorithm == RouterAlgorithm::Reference)
        return routeReference(netlist, graph, placement);
    return routeIncremental(netlist, graph, placement);
}

RoutingResult
PathFinderRouter::routeIncremental(const Netlist &netlist,
                                   const RrGraph &graph,
                                   const Placement &placement) const
{
    netlist.validate();
    RoutingResult result;
    result.nets.resize(netlist.nets().size());

    CongestionState cong(graph);
    // Per-net set of channel nodes charged to the net (route tree).
    std::vector<std::vector<RrNodeId>> net_nodes(netlist.nets().size());

    SearchState search(graph.nodeCount());
    RouteTree tree(graph.nodeCount());
    std::vector<AStarEntry> heap;

    // Admissible grid-distance delay lookahead: from coordinate
    // distance d to the sink tile the search must still step into at
    // least floor((d - 1) / 2) channel nodes (one switch-box hop moves
    // at most 2 in coordinate space) plus the sink itself.  Channel
    // cost never drops below base delay (history and present-sharing
    // terms are non-negative), so this lower-bounds remaining cost and
    // A* pops the same optimal paths Dijkstra would.
    const double min_chan = graph.minChannelDelay();
    const std::size_t max_d = static_cast<std::size_t>(
        graph.arch().width() + graph.arch().height() + 3);
    std::vector<double> lookahead(max_d + 1, 0.0);
    for (std::size_t d = 0; d <= max_d; ++d) {
        lookahead[d] =
            min_chan * static_cast<double>(d > 1 ? (d - 1) / 2 : 0);
    }

    const std::vector<NetId> order = routingOrder(netlist, placement);
    std::vector<std::uint8_t> dirty(netlist.nets().size(), 1);
    std::vector<RrNodeId> over_nodes;

    double pres_fac = params_.presFacFirst;
    double hist_escalation = 1.0;
    int stalled = 0;
    std::int64_t prev_overused = std::numeric_limits<std::int64_t>::max();
    for (int iter = 1; iter <= params_.maxIterations; ++iter) {
        result.iterations = iter;

        for (NetId n : order) {
            if (!dirty[static_cast<std::size_t>(n)])
                continue;
            dirty[static_cast<std::size_t>(n)] = 0;
            const Net &net = netlist.net(n);
            ++result.netsRouted;

            // Rip up this net's previous route.
            for (RrNodeId id : net_nodes[static_cast<std::size_t>(n)])
                cong.usage[static_cast<std::size_t>(id)] -= net.width;
            net_nodes[static_cast<std::size_t>(n)].clear();
            RoutedNet &routed = result.nets[static_cast<std::size_t>(n)];
            routed.sinkPaths.assign(net.sinks.size(), {});

            const auto &[sx, sy] = placement.of(net.driver);
            const RrNodeId source = graph.sourceAt(sx, sy);
            tree.reset();
            tree.add(source, -1);

            // Grow the route tree sink-by-sink, nearest sink first so
            // later (farther) sinks find a large tree to attach to.
            std::vector<std::size_t> sink_order(net.sinks.size());
            for (std::size_t k = 0; k < sink_order.size(); ++k)
                sink_order[k] = k;
            std::sort(sink_order.begin(), sink_order.end(),
                      [&](std::size_t a, std::size_t b) {
                          const auto &[ax, ay] =
                              placement.of(net.sinks[a]);
                          const auto &[bx, by] =
                              placement.of(net.sinks[b]);
                          const int da =
                              std::abs(ax - sx) + std::abs(ay - sy);
                          const int db =
                              std::abs(bx - sx) + std::abs(by - sy);
                          if (da != db)
                              return da < db;
                          return a < b;
                      });

            for (std::size_t k : sink_order) {
                const auto &[tx, ty] = placement.of(net.sinks[k]);
                const RrNodeId target = graph.sinkAt(tx, ty);
                if (tree.contains(target)) { // duplicate sink site
                    routed.sinkPaths[k] = tree.pathTo(target);
                    continue;
                }
                const double sink_delay = graph.node(target).delay;
                auto heuristic = [&](RrNodeId id) {
                    if (id == target)
                        return 0.0;
                    const RrNode &nd = graph.node(id);
                    const std::size_t d = static_cast<std::size_t>(
                        std::abs(nd.x - tx) + std::abs(nd.y - ty));
                    return lookahead[std::min(d, max_d)] + sink_delay;
                };

                // Multi-source A*: every tree node is a zero-cost seed,
                // so the search grows outward from the whole routed
                // portion instead of restarting at the driver.  Sinks
                // have no out-edges: one that is not the target would
                // only be popped to expand nothing, so sinks are never
                // seeded or pushed.  The heap order (f, node) is strict,
                // so dropping those entries leaves every other pop, and
                // thus every routed path, unchanged.
                search.newSearch();
                heap.clear();
                for (RrNodeId t : tree.nodes) {
                    if (graph.isSink(t))
                        continue;
                    search.set(t, 0.0, -1);
                    heap.push_back({heuristic(t), 0.0, t});
                }
                std::make_heap(heap.begin(), heap.end(), AStarGreater{});

                bool found = false;
                while (!heap.empty()) {
                    std::pop_heap(heap.begin(), heap.end(),
                                  AStarGreater{});
                    const AStarEntry e = heap.back();
                    heap.pop_back();
                    if (e.g > search.distOf(e.node))
                        continue;
                    if (e.node == target) {
                        found = true;
                        break;
                    }
                    for (RrNodeId next : graph.adjacent(e.node)) {
                        if (graph.isSink(next) && next != target)
                            continue;
                        const double nd =
                            e.g +
                            cong.nodeCost(next, net.width, pres_fac);
                        if (nd < search.distOf(next)) {
                            search.set(next, nd, e.node);
                            heap.push_back(
                                {nd + heuristic(next), nd, next});
                            std::push_heap(heap.begin(), heap.end(),
                                           AStarGreater{});
                        }
                    }
                }
                fpsa_assert(found, "net '%s' sink unreachable",
                            net.name.c_str());

                // Unwind the new branch back to its tree attachment
                // point and graft it onto the tree.
                std::vector<RrNodeId> branch;
                RrNodeId at = target;
                while (!tree.contains(at)) {
                    branch.push_back(at);
                    at = search.prev[static_cast<std::size_t>(at)];
                }
                RrNodeId parent = at;
                for (std::size_t i = branch.size(); i-- > 0;) {
                    const RrNodeId id = branch[i];
                    tree.add(id, parent);
                    if (cong.capacitated(id)) {
                        cong.usage[static_cast<std::size_t>(id)] +=
                            net.width;
                        net_nodes[static_cast<std::size_t>(n)].push_back(
                            id);
                    }
                    parent = id;
                }
                routed.sinkPaths[k] = tree.pathTo(target);
            }
        }

        // Congestion accounting.
        over_nodes.clear();
        std::int64_t overused = 0;
        double peak_util = 0.0;
        for (std::size_t id = 0; id < graph.nodeCount(); ++id) {
            const RrNode &node = graph.node(static_cast<RrNodeId>(id));
            if (node.capacity <= 0)
                continue;
            const std::int64_t over = cong.usage[id] - node.capacity;
            peak_util = std::max(
                peak_util,
                static_cast<double>(cong.usage[id]) / node.capacity);
            if (over > 0) {
                ++overused;
                over_nodes.push_back(static_cast<RrNodeId>(id));
            }
        }
        result.peakChannelUtilization = peak_util;
        result.overusedSegments = overused;
        if (overused == 0) {
            result.success = true;
            break;
        }

        // Incremental PathFinder: only nets riding an overused segment
        // negotiate in the next iteration; settled nets keep their
        // routes (and their usage) untouched.  The asymmetry is what
        // converges: one conflicting net diverts while the rest stay
        // put (a global reroute would migrate them in lockstep,
        // rotating the hot spot forever).  When overuse stops
        // shrinking anyway, the conflict is tied among equally-cheap
        // segments, so escalate the history penalty on the stuck
        // segments until the tie breaks.
        if (overused >= prev_overused) {
            ++stalled;
            hist_escalation = std::min(hist_escalation * 2.0, 64.0);
        } else {
            stalled = 0;
            hist_escalation = 1.0;
        }
        if (stalled > 0 && stalled % 3 == 0) {
            // A long tie can also mean the legal pattern needs settled
            // nets to shift: shake the whole netlist up occasionally.
            std::fill(dirty.begin(), dirty.end(), 1);
        } else {
            for (NetId n = 0; n < static_cast<NetId>(net_nodes.size());
                 ++n) {
                for (RrNodeId id :
                     net_nodes[static_cast<std::size_t>(n)]) {
                    const RrNode &node = graph.node(id);
                    if (cong.usage[static_cast<std::size_t>(id)] >
                        node.capacity) {
                        dirty[static_cast<std::size_t>(n)] = 1;
                        break;
                    }
                }
            }
        }
        for (RrNodeId id : over_nodes) {
            const RrNode &node = graph.node(id);
            const std::int64_t over =
                cong.usage[static_cast<std::size_t>(id)] - node.capacity;
            cong.history[static_cast<std::size_t>(id)] +=
                params_.histFac * hist_escalation * node.delay *
                static_cast<double>(over) / node.capacity;
        }
        prev_overused = overused;
        pres_fac = std::min(pres_fac * params_.presFacMult,
                            params_.presFacMax);
    }

    finalizeResult(result, graph, netlist, net_nodes);
    return result;
}

RoutingResult
PathFinderRouter::routeReference(const Netlist &netlist,
                                 const RrGraph &graph,
                                 const Placement &placement) const
{
    netlist.validate();
    RoutingResult result;
    result.nets.resize(netlist.nets().size());

    CongestionState cong(graph);
    // Per-net set of channel nodes charged to the net (route tree).
    std::vector<std::vector<RrNodeId>> net_nodes(netlist.nets().size());

    std::vector<double> dist(graph.nodeCount());
    std::vector<RrNodeId> prev(graph.nodeCount());

    double pres_fac = params_.presFacFirst;
    for (int iter = 1; iter <= params_.maxIterations; ++iter) {
        result.iterations = iter;

        for (NetId n = 0; n < static_cast<NetId>(netlist.nets().size());
             ++n) {
            const Net &net = netlist.net(n);
            ++result.netsRouted;

            // Rip up this net's previous route.
            for (RrNodeId id : net_nodes[static_cast<std::size_t>(n)])
                cong.usage[static_cast<std::size_t>(id)] -= net.width;
            net_nodes[static_cast<std::size_t>(n)].clear();
            RoutedNet &routed = result.nets[static_cast<std::size_t>(n)];
            routed.sinkPaths.assign(net.sinks.size(), {});

            const auto &[sx, sy] = placement.of(net.driver);
            const RrNodeId source = graph.sourceAt(sx, sy);

            // Nodes already owned by this net route for free (fanout
            // shares the bus).
            std::vector<std::uint8_t> owned(graph.nodeCount(), 0);

            for (std::size_t k = 0; k < net.sinks.size(); ++k) {
                const auto &[tx, ty] = placement.of(net.sinks[k]);
                const RrNodeId target = graph.sinkAt(tx, ty);

                std::fill(dist.begin(), dist.end(), kInf);
                std::fill(prev.begin(), prev.end(), -1);
                std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                    std::greater<QueueEntry>> pq;
                dist[static_cast<std::size_t>(source)] = 0.0;
                pq.push({0.0, source});
                while (!pq.empty()) {
                    const auto [cost, node] = pq.top();
                    pq.pop();
                    if (cost > dist[static_cast<std::size_t>(node)])
                        continue;
                    if (node == target)
                        break;
                    for (RrNodeId next : graph.adjacent(node)) {
                        double step =
                            owned[static_cast<std::size_t>(next)]
                                ? 0.0
                                : cong.nodeCost(next, net.width, pres_fac);
                        const double nd = cost + step;
                        if (nd < dist[static_cast<std::size_t>(next)]) {
                            dist[static_cast<std::size_t>(next)] = nd;
                            prev[static_cast<std::size_t>(next)] = node;
                            pq.push({nd, next});
                        }
                    }
                }
                fpsa_assert(prev[static_cast<std::size_t>(target)] >= 0 ||
                                target == source,
                            "net '%s' sink unreachable", net.name.c_str());

                // Unwind the path and charge new nodes to the net.
                std::vector<RrNodeId> path;
                for (RrNodeId at = target; at != -1;
                     at = prev[static_cast<std::size_t>(at)]) {
                    path.push_back(at);
                    if (at == source)
                        break;
                }
                std::reverse(path.begin(), path.end());
                for (RrNodeId id : path) {
                    if (owned[static_cast<std::size_t>(id)])
                        continue;
                    owned[static_cast<std::size_t>(id)] = 1;
                    if (cong.capacitated(id)) {
                        cong.usage[static_cast<std::size_t>(id)] +=
                            net.width;
                        net_nodes[static_cast<std::size_t>(n)].push_back(
                            id);
                    }
                }
                routed.sinkPaths[k] = std::move(path);
            }
        }

        // Congestion accounting.
        std::int64_t overused = 0;
        double peak_util = 0.0;
        for (std::size_t id = 0; id < graph.nodeCount(); ++id) {
            const RrNode &node = graph.node(static_cast<RrNodeId>(id));
            if (node.capacity <= 0)
                continue;
            const std::int64_t over = cong.usage[id] - node.capacity;
            peak_util = std::max(
                peak_util,
                static_cast<double>(cong.usage[id]) / node.capacity);
            if (over > 0) {
                ++overused;
                cong.history[id] += params_.histFac * node.delay *
                                    static_cast<double>(over) /
                                    node.capacity;
            }
        }
        result.peakChannelUtilization = peak_util;
        result.overusedSegments = overused;
        if (overused == 0) {
            result.success = true;
            break;
        }
        pres_fac *= params_.presFacMult;
    }

    finalizeResult(result, graph, netlist, net_nodes);
    return result;
}

} // namespace fpsa
