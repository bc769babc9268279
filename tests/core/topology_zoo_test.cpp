// End-to-end integration over a zoo of adversarial topologies: every
// protocol must deliver on every connected structure we can build.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>
#include <vector>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

std::vector<Point2D> ring(std::size_t n, double range) {
  // Circumradius chosen so only adjacent ring nodes connect.
  std::vector<Point2D> pts;
  const double step = 0.9 * range;
  const double radius =
      step / (2.0 * std::sin(std::numbers::pi_v<double> /
                             static_cast<double>(n)));
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 2.0 * std::numbers::pi_v<double> *
                     static_cast<double>(i) / static_cast<double>(n);
    pts.push_back({radius * std::cos(a), radius * std::sin(a)});
  }
  return pts;
}

std::vector<Point2D> denseBlob(std::size_t n, double range) {
  // Everyone within range of everyone: a clique.
  std::vector<Point2D> pts;
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniformReal(0, range / 3),
                   rng.uniformReal(0, range / 3)});
  return pts;
}

std::vector<Point2D> dumbbell(std::size_t perSide, double range) {
  // Two cliques joined by a 3-hop corridor.
  std::vector<Point2D> pts;
  Rng rng(6);
  for (std::size_t i = 0; i < perSide; ++i)
    pts.push_back({rng.uniformReal(0, range / 4),
                   rng.uniformReal(0, range / 4)});
  const double corridor = 0.8 * range;
  pts.push_back({range / 4 + corridor, 0});
  pts.push_back({range / 4 + 2 * corridor, 0});
  for (std::size_t i = 0; i < perSide; ++i)
    pts.push_back({range / 4 + 3 * corridor + rng.uniformReal(0, range / 4),
                   rng.uniformReal(0, range / 4)});
  return pts;
}

std::vector<Point2D> comb(std::size_t teeth, double range) {
  // A spine with one dangling tooth per spine node.
  std::vector<Point2D> pts;
  const double step = 0.9 * range;
  for (std::size_t i = 0; i < teeth; ++i) {
    pts.push_back({static_cast<double>(i) * step, 0});
    pts.push_back({static_cast<double>(i) * step, step});
  }
  return pts;
}

// A named zoo entry. The name is what gtest prints for GetParam(), so the
// CTest case is called e.g. ".../ring" instead of after a function address
// that moves from build to build.
struct Shape {
  const char* name;
  std::vector<Point2D> (*build)();
};
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class TopologyZoo : public ::testing::TestWithParam<Shape> {};

std::vector<Point2D> zooRing() { return ring(12, 50.0); }
std::vector<Point2D> zooBlob() { return denseBlob(20, 50.0); }
std::vector<Point2D> zooDumbbell() { return dumbbell(10, 50.0); }
std::vector<Point2D> zooComb() { return comb(8, 50.0); }
std::vector<Point2D> zooLine() { return deployLine(15, 50.0); }
std::vector<Point2D> zooStar() { return deployStar(10, 50.0); }
std::vector<Point2D> zooPair() { return {{0, 0}, {30, 0}}; }

TEST_P(TopologyZoo, AllProtocolsDeliverEverywhere) {
  SensorNetwork net(GetParam().build(), 50.0);
  ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
  Rng rng(17);
  for (auto scheme : {BroadcastScheme::kDfo, BroadcastScheme::kCff,
                      BroadcastScheme::kImprovedCff}) {
    // Try the root and a random node as sources.
    for (const NodeId source :
         {net.clusterNet().root(), net.randomNode(rng)}) {
      const auto run = net.broadcast(scheme, source, 0xAA);
      EXPECT_TRUE(run.sim.completed)
          << toString(scheme) << " from " << source;
      EXPECT_TRUE(run.allDelivered())
          << toString(scheme) << " from " << source << " coverage "
          << run.coverage();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyZoo,
                         ::testing::Values(Shape{"ring", &zooRing},
                                           Shape{"blob", &zooBlob},
                                           Shape{"dumbbell", &zooDumbbell},
                                           Shape{"comb", &zooComb},
                                           Shape{"line", &zooLine},
                                           Shape{"star", &zooStar},
                                           Shape{"pair", &zooPair}));

TEST(TopologyZooTest, CliqueIsOneCluster) {
  SensorNetwork net(denseBlob(15, 50.0), 50.0);
  EXPECT_EQ(net.stats().clusterCount, 1u);
  EXPECT_EQ(net.stats().backboneSize, 1u);
}

TEST(TopologyZooTest, MulticastAcrossDumbbell) {
  SensorNetwork net(dumbbell(10, 50.0), 50.0);
  // Group lives entirely on the far side; relays cross the corridor.
  const auto nodes = net.clusterNet().netNodes();
  int joined = 0;
  for (NodeId v : nodes) {
    if (net.position(v).x > 100.0 &&
        net.clusterNet().status(v) == NodeStatus::kPureMember) {
      net.joinGroup(v, 2);
      ++joined;
    }
  }
  ASSERT_GT(joined, 0);
  const auto run = net.multicast(net.clusterNet().root(), 2, 1,
                                 MulticastMode::kFullFlood);
  EXPECT_TRUE(run.allDelivered());
}

}  // namespace
}  // namespace dsn
