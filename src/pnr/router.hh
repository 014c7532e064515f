/**
 * @file
 * Net routing on the ReRAM routing fabric: Dijkstra shortest paths with
 * PathFinder-style negotiated congestion (paper Sec. 5.3 uses Dijkstra
 * to minimize critical-path latency; PathFinder iteration resolves the
 * capacity conflicts that single-shot Dijkstra leaves behind).
 *
 * Two router algorithms share the cost model:
 *
 *  - Incremental (default): epoch-stamped lazy-reset search state,
 *    multi-source Dijkstra that grows each net as a route tree, an
 *    admissible A* lookahead from a precomputed grid-distance delay
 *    table, and after the first iteration only nets touching overused
 *    segments are ripped up and rerouted.
 *  - Reference: the original full-reroute router (per-sink Dijkstra
 *    restarted from the driver, O(nodes) state reset per sink).  Kept
 *    as the quality/perf baseline for `bench/pnr_scaling` and the
 *    regression tests.
 *
 * Nets are routed in a stable order (decreasing placed bounding box,
 * then decreasing width, then net id) so results are reproducible
 * across platforms regardless of netlist construction order.
 */

#ifndef FPSA_PNR_ROUTER_HH
#define FPSA_PNR_ROUTER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "pnr/placement.hh"
#include "routing/rr_graph.hh"

namespace fpsa
{

/** Router algorithm selector. */
enum class RouterAlgorithm : std::uint8_t
{
    Reference,   //!< original per-sink full-reroute router
    Incremental, //!< route-tree growth + A* + incremental rip-up
};

/** Router tuning knobs. */
struct RouterParams
{
    int maxIterations = 24;
    double presFacFirst = 0.6;  //!< present-congestion factor, iter 1
    double presFacMult = 1.7;   //!< growth per iteration
    /**
     * Ceiling on the present-congestion factor (incremental algorithm
     * only; the reference router keeps its original unbounded growth).
     * Unbounded growth washes out the history term, so ties between
     * equally-full segments never break and conflicting nets oscillate
     * forever (VPR caps pres_fac for the same reason).
     */
    double presFacMax = 64.0;
    double histFac = 0.35;      //!< historical congestion accumulation

    RouterAlgorithm algorithm = RouterAlgorithm::Incremental;

    bool operator==(const RouterParams &) const = default;
};

/** One routed net: a path per sink plus delay bookkeeping. */
struct RoutedNet
{
    /** Node sequence (source..sink) for every sink, in sink order. */
    std::vector<std::vector<RrNodeId>> sinkPaths;

    /** Worst sink delay of this net. */
    NanoSeconds delay = 0.0;

    /** Channel segments used (unique across the net's route tree). */
    int segmentsUsed = 0;
};

/** Result of routing a whole netlist. */
struct RoutingResult
{
    bool success = false;       //!< no overused channel remains
    int iterations = 0;         //!< PathFinder iterations executed
    std::vector<RoutedNet> nets;

    NanoSeconds avgNetDelay = 0.0;
    NanoSeconds maxNetDelay = 0.0;   //!< the critical net
    double peakChannelUtilization = 0.0; //!< max usage/capacity
    std::int64_t overusedSegments = 0;   //!< left when success == false

    /** Net-routing operations summed over iterations (perf counter). */
    std::int64_t netsRouted = 0;

    /** Track-segments consumed: sum over nets of width x segmentsUsed. */
    std::int64_t totalWirelength = 0;
};

/** PathFinder negotiated-congestion router. */
class PathFinderRouter
{
  public:
    explicit PathFinderRouter(const RouterParams &params = RouterParams{});

    /**
     * Route every net of the netlist on the graph under the placement.
     * Fails (success = false) if congestion cannot be negotiated away
     * within maxIterations.
     */
    RoutingResult route(const Netlist &netlist, const RrGraph &graph,
                        const Placement &placement) const;

  private:
    RoutingResult routeReference(const Netlist &netlist,
                                 const RrGraph &graph,
                                 const Placement &placement) const;
    RoutingResult routeIncremental(const Netlist &netlist,
                                   const RrGraph &graph,
                                   const Placement &placement) const;

    RouterParams params_;
};

} // namespace fpsa

#endif // FPSA_PNR_ROUTER_HH
