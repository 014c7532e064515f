/**
 * @file
 * Routing-resource graph of the island-style ReRAM fabric.
 *
 * The graph abstracts each channel segment (the bundle of
 * `channelWidth` parallel tracks spanning one tile pitch) as one node
 * with integer capacity.  Edges follow the island-style topology:
 *
 *   Source(x,y) -CB-> adjacent channel segments
 *   segment -SB-> segments sharing a switch-box corner
 *   segment -CB-> Sink(x,y)
 *
 * A net of width w consumes w tracks of every segment on its path.
 * This channel-level abstraction keeps VGG16-scale routing tractable
 * while preserving what the paper measures: per-net delay (CB/SB/wire
 * RC chain) and channel congestion.
 */

#ifndef FPSA_ROUTING_RR_GRAPH_HH
#define FPSA_ROUTING_RR_GRAPH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "arch/fpsa_arch.hh"
#include "common/types.hh"

namespace fpsa
{

/** Node index in the routing-resource graph. */
using RrNodeId = std::int32_t;

/**
 * One routing-resource node: everything a router relaxation reads (cost
 * inputs and lookahead coordinates) in one 16-byte record.
 */
struct RrNode
{
    NanoSeconds delay = 0.0;     //!< cost of traversing this node
    std::int32_t capacity = 0;   //!< tracks (Source/Sink: 0, unbounded)
    std::int16_t x = 0;
    std::int16_t y = 0;
};
static_assert(sizeof(RrNode) == 16);

/** The routing-resource graph for one chip. */
class RrGraph
{
  public:
    explicit RrGraph(const FpsaArch &arch);

    const FpsaArch &arch() const { return *arch_; }

    std::size_t nodeCount() const { return nodes_.size(); }
    const RrNode &node(RrNodeId id) const
    {
        return nodes_[static_cast<std::size_t>(id)];
    }

    /** Out-edges of a node (empty for a sink). */
    std::span<const RrNodeId> adjacent(RrNodeId id) const
    {
        const auto at = static_cast<std::size_t>(id);
        return {edges_.data() + edgeBegin_[at],
                edgeBegin_[at + 1] - edgeBegin_[at]};
    }

    /** Whether a node is a block's sink (the node range past sources). */
    bool isSink(RrNodeId id) const { return id >= sinkBase_; }

    /** Virtual source node of the block at a site. */
    RrNodeId sourceAt(int x, int y) const;

    /** Virtual sink node of the block at a site. */
    RrNodeId sinkAt(int x, int y) const;

    /** Horizontal channel segment id; x in [0,W), y in [0,H]. */
    RrNodeId chanX(int x, int y) const;

    /** Vertical channel segment id; x in [0,W], y in [0,H). */
    RrNodeId chanY(int x, int y) const;

    /** Total channel-segment nodes (wiring supply diagnostic). */
    std::size_t channelSegmentCount() const { return numChan_; }

    /**
     * Smallest traversal delay over all capacitated channel nodes: the
     * admissible per-hop lower bound the router's A* lookahead scales
     * by grid distance.
     */
    NanoSeconds minChannelDelay() const { return minChanDelay_; }

  private:
    const FpsaArch *arch_;
    std::vector<RrNode> nodes_;
    // Adjacency in CSR form: the out-edges of node i are
    // edges_[edgeBegin_[i] .. edgeBegin_[i + 1]).
    std::vector<std::size_t> edgeBegin_;
    std::vector<RrNodeId> edges_;
    std::size_t numChan_ = 0;
    NanoSeconds minChanDelay_ = 0.0;
    // Layout offsets into the node array [ChanX | ChanY | Source | Sink].
    std::int32_t chanXBase_ = 0;
    std::int32_t chanYBase_ = 0;
    std::int32_t srcBase_ = 0;
    std::int32_t sinkBase_ = 0;
};

} // namespace fpsa

#endif // FPSA_ROUTING_RR_GRAPH_HH
