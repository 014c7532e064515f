#include "routing/rr_graph.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace fpsa
{

RrGraph::RrGraph(const FpsaArch &arch) : arch_(&arch)
{
    const int w = arch.width();
    const int h = arch.height();
    const int cw = arch.params().channelWidth;
    const SwitchParams &sw = arch.params().switches;

    // Node layout: [ChanX | ChanY | Source | Sink].
    const std::int32_t n_chanx = w * (h + 1);
    const std::int32_t n_chany = (w + 1) * h;
    const std::int32_t n_sites = w * h;
    chanXBase_ = 0;
    chanYBase_ = n_chanx;
    srcBase_ = n_chanx + n_chany;
    sinkBase_ = srcBase_ + n_sites;
    numChan_ = static_cast<std::size_t>(n_chanx + n_chany);

    nodes_.resize(static_cast<std::size_t>(sinkBase_ + n_sites));

    for (int y = 0; y <= h; ++y) {
        for (int x = 0; x < w; ++x) {
            RrNode &n = nodes_[static_cast<std::size_t>(chanX(x, y))];
            n.x = static_cast<std::int16_t>(x);
            n.y = static_cast<std::int16_t>(y);
            n.capacity = cw;
            n.delay = sw.segmentDelay + sw.sbDelay;
        }
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x <= w; ++x) {
            RrNode &n = nodes_[static_cast<std::size_t>(chanY(x, y))];
            n.x = static_cast<std::int16_t>(x);
            n.y = static_cast<std::int16_t>(y);
            n.capacity = cw;
            n.delay = sw.segmentDelay + sw.sbDelay;
        }
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            RrNode &src = nodes_[static_cast<std::size_t>(sourceAt(x, y))];
            src.x = static_cast<std::int16_t>(x);
            src.y = static_cast<std::int16_t>(y);
            src.capacity = 0; // not a shared resource
            src.delay = sw.cbDelay;
            RrNode &snk = nodes_[static_cast<std::size_t>(sinkAt(x, y))];
            snk.x = static_cast<std::int16_t>(x);
            snk.y = static_cast<std::int16_t>(y);
            snk.capacity = 0;
            snk.delay = sw.cbDelay;
        }
    }

    minChanDelay_ = sw.segmentDelay + sw.sbDelay;
    for (std::size_t i = 0; i < numChan_; ++i)
        minChanDelay_ = std::min(minChanDelay_, nodes_[i].delay);

    // Edges are collected in order, then packed into CSR (each node's
    // out-edges keep the order they were added in).
    std::vector<std::pair<RrNodeId, RrNodeId>> edge_list;
    auto add_edge = [&edge_list](RrNodeId from, RrNodeId to) {
        edge_list.emplace_back(from, to);
    };

    // Switch-box corner (cx, cy), cx in [0,w], cy in [0,h], joins:
    //   ChanX(cx-1, cy), ChanX(cx, cy), ChanY(cx, cy-1), ChanY(cx, cy).
    for (int cy = 0; cy <= h; ++cy) {
        for (int cx = 0; cx <= w; ++cx) {
            RrNodeId at_corner[4];
            int n = 0;
            if (cx >= 1)
                at_corner[n++] = chanX(cx - 1, cy);
            if (cx < w)
                at_corner[n++] = chanX(cx, cy);
            if (cy >= 1)
                at_corner[n++] = chanY(cx, cy - 1);
            if (cy < h)
                at_corner[n++] = chanY(cx, cy);
            for (int i = 0; i < n; ++i)
                for (int j = 0; j < n; ++j)
                    if (i != j)
                        add_edge(at_corner[i], at_corner[j]);
        }
    }

    // Connection boxes: each site reaches the four channels on its
    // perimeter (paper Fig. 3: CBs on all four sides).
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const RrNodeId perimeter[4] = {chanX(x, y), chanX(x, y + 1),
                                           chanY(x, y), chanY(x + 1, y)};
            for (RrNodeId c : perimeter) {
                add_edge(sourceAt(x, y), c);
                add_edge(c, sinkAt(x, y));
            }
        }
    }

    edgeBegin_.assign(nodes_.size() + 1, 0);
    for (const auto &[from, to] : edge_list)
        ++edgeBegin_[static_cast<std::size_t>(from) + 1];
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        edgeBegin_[i + 1] += edgeBegin_[i];
    edges_.resize(edge_list.size());
    std::vector<std::size_t> cursor(edgeBegin_.begin(), edgeBegin_.end() - 1);
    for (const auto &[from, to] : edge_list)
        edges_[cursor[static_cast<std::size_t>(from)]++] = to;
}

RrNodeId
RrGraph::sourceAt(int x, int y) const
{
    fpsa_assert(x >= 0 && x < arch_->width() && y >= 0 &&
                    y < arch_->height(),
                "site (%d, %d) out of grid", x, y);
    return srcBase_ + y * arch_->width() + x;
}

RrNodeId
RrGraph::sinkAt(int x, int y) const
{
    fpsa_assert(x >= 0 && x < arch_->width() && y >= 0 &&
                    y < arch_->height(),
                "site (%d, %d) out of grid", x, y);
    return sinkBase_ + y * arch_->width() + x;
}

RrNodeId
RrGraph::chanX(int x, int y) const
{
    fpsa_assert(x >= 0 && x < arch_->width() && y >= 0 &&
                    y <= arch_->height(),
                "chanx (%d, %d) out of grid", x, y);
    return chanXBase_ + y * arch_->width() + x;
}

RrNodeId
RrGraph::chanY(int x, int y) const
{
    fpsa_assert(x >= 0 && x <= arch_->width() && y >= 0 &&
                    y < arch_->height(),
                "chany (%d, %d) out of grid", x, y);
    return chanYBase_ + y * (arch_->width() + 1) + x;
}

} // namespace fpsa
