// TcpNetwork in-process tests: frame codec strictness, real-socket
// delivery, connection supervision (reconnect, heartbeat staleness, peer
// watchers), bounded-queue shedding, hostile-bytes rejection, and RPC over
// TCP loopback. Multi-process behavior (kill -9, SIGSTOP) lives in
// cluster_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "network/frame.h"
#include "network/rpc.h"
#include "network/tcp_network.h"

namespace sebdb {
namespace {

Message MakeMessage(const std::string& type, const std::string& from,
                    const std::string& to, const std::string& payload) {
  return Message{type, from, to, payload};
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_millis) {
  int64_t deadline = SteadyNowMillis() + timeout_millis;
  while (SteadyNowMillis() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---- frame codec ----

TEST(FrameCodec, RoundTrip) {
  Message in = MakeMessage("gossip.digest", "node1", "node2", "payload-bytes");
  std::string wire;
  EncodeFrame(in, &wire);
  ASSERT_GE(wire.size(), kFrameHeaderBytes);

  Slice input(wire);
  Message out;
  ASSERT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.from, in.from);
  EXPECT_EQ(out.to, in.to);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(FrameCodec, RejectsBadMagicVersionLengthCrc) {
  Message in = MakeMessage("rpc.request", "c", "s", "body");
  std::string wire;
  EncodeFrame(in, &wire);

  {  // magic
    std::string bad = wire;
    bad[0] ^= 0x5a;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // version
    std::string bad = wire;
    bad[4] = 99;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // declared length over the cap: must reject BEFORE wanting more bytes
    std::string bad = wire;
    bad[5] = '\xff';
    bad[6] = '\xff';
    bad[7] = '\xff';
    bad[8] = '\x7f';
    Slice input(bad);
    Message out;
    Status s = DecodeFrame(&input, /*max_frame_bytes=*/1 << 20, &out);
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.message().find("cap"), std::string::npos);
  }
  {  // payload corruption -> CRC mismatch
    std::string bad = wire;
    bad[kFrameHeaderBytes + 2] ^= 0x01;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // trailing bytes inside the declared payload
    Message empty_type = in;
    std::string payload_wire;
    EncodeFrame(empty_type, &payload_wire);
    payload_wire += "x";  // extra byte beyond the frame
    Slice input(payload_wire);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).ok());
    EXPECT_EQ(input.size(), 1u);  // codec consumes exactly one frame
  }
}

TEST(FrameCodec, TypeAllowlist) {
  EXPECT_TRUE(IsAllowedMessageType("gossip.digest"));
  EXPECT_TRUE(IsAllowedMessageType("rpc.request"));
  EXPECT_TRUE(IsAllowedMessageType("thin.submit"));
  EXPECT_TRUE(IsAllowedMessageType("net.ping"));
  EXPECT_TRUE(IsAllowedMessageType("kafka.submit"));
  EXPECT_FALSE(IsAllowedMessageType(""));
  EXPECT_FALSE(IsAllowedMessageType("gossip."));  // prefix alone is not a type
  EXPECT_FALSE(IsAllowedMessageType("evil.inject"));
  EXPECT_FALSE(IsAllowedMessageType("pbft.preprepare"));  // no such engine
  EXPECT_FALSE(IsAllowedMessageType("GOSSIP.DIGEST"));
  EXPECT_FALSE(IsAllowedMessageType("rpc.request\n"));
  EXPECT_FALSE(IsAllowedMessageType(std::string(65, 'a')));

  Message bad = MakeMessage("evil.inject", "a", "b", "");
  std::string wire;
  EncodeFrame(bad, &wire);
  Slice input(wire);
  Message out;
  EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
}

// ---- two real processes' worth of sockets, one test process ----

struct Pair {
  TcpNetwork a;
  TcpNetwork b;

  static TcpNetworkOptions Opts(const std::string& id) {
    TcpNetworkOptions o;
    o.local_id = id;
    o.listen_port = 0;
    o.heartbeat_interval_millis = 50;
    o.peer_down_after_millis = 400;
    o.reconnect_backoff_initial_millis = 20;
    o.reconnect_backoff_max_millis = 100;
    return o;
  }

  // b supervises a link to a; a supervises a link to b (ports learned after
  // both listeners are up, via a second Start on fresh objects) — instead,
  // construct a first, then point b at a's bound port, and give a a
  // supervised link to b the same way via late construction.
  Pair() : a(Opts("a")), b(BOpts()) {}

  TcpNetworkOptions BOpts() {
    EXPECT_TRUE(a.Start().ok());
    TcpNetworkOptions o = Opts("b");
    o.peers.push_back(TcpPeer{"a", "127.0.0.1", a.listen_port()});
    return o;
  }
};

TEST(TcpNetworkTest, DeliversBothDirectionsOverOneSupervisedLink) {
  Pair pair;
  ASSERT_TRUE(pair.b.Start().ok());

  std::atomic<int> got_a{0}, got_b{0};
  std::string seen_payload;
  ASSERT_TRUE(pair.a
                  .Register("a",
                            [&](const Message& m) {
                              seen_payload = m.payload;
                              got_a++;
                            })
                  .ok());
  ASSERT_TRUE(pair.b.Register("b", [&](const Message&) { got_b++; }).ok());

  ASSERT_TRUE(WaitFor([&] { return pair.b.PeerUp("a"); }, 3000));

  // b -> a over the supervised link.
  pair.b.Send(MakeMessage("gossip.digest", "b", "a", "hello"));
  ASSERT_TRUE(WaitFor([&] { return got_a.load() == 1; }, 3000));
  EXPECT_EQ(seen_payload, "hello");

  // a -> b rides the dynamic route learned from b's frames.
  pair.a.Send(MakeMessage("gossip.digest", "a", "b", "reply"));
  ASSERT_TRUE(WaitFor([&] { return got_b.load() == 1; }, 3000));

  const NetworkStats stats = pair.a.stats();
  EXPECT_EQ(stats.frames_rejected, 0u);
}

TEST(TcpNetworkTest, PeerWatcherSeesDownOnShutdownAndUpOnRestart) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  auto server = std::make_unique<TcpNetwork>(server_opts);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->listen_port();

  // Declared before the client: its destructor still reports the peer
  // going down, so the watcher's state must outlive it.
  Mutex mu;
  std::vector<std::pair<std::string, bool>> events;

  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(TcpPeer{"server", "127.0.0.1", port});
  TcpNetwork client(client_opts);
  client.AddPeerWatcher([&](const std::string& peer, bool up) {
    MutexLock lock(&mu);
    events.push_back({peer, up});
  });
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client.PeerUp("server"); }, 3000));

  // Hard-stop the server: reconnects fail until a new listener appears on
  // the same port.
  server->Shutdown();
  ASSERT_TRUE(WaitFor([&] { return !client.PeerUp("server"); }, 3000));

  TcpNetworkOptions restart_opts = server_opts;
  restart_opts.listen_port = port;  // come back on the address clients know
  server = std::make_unique<TcpNetwork>(restart_opts);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client.PeerUp("server"); }, 5000));

  MutexLock lock(&mu);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<std::string, bool>{"server", true}));
  bool saw_down = false, saw_reup = false;
  for (size_t i = 1; i < events.size(); i++) {
    if (events[i].first == "server" && !events[i].second) saw_down = true;
    if (saw_down && events[i].second) saw_reup = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_reup);
  const TcpTransportStats tcp = client.tcp_stats();
  EXPECT_GE(tcp.peer_down_events, 1u);
  EXPECT_GE(tcp.connects_ok, 2u);
}

TEST(TcpNetworkTest, BoundedSendQueueShedsOldestWhilePeerDown) {
  TcpNetworkOptions opts = Pair::Opts("lonely");
  opts.peers.push_back(TcpPeer{"ghost", "127.0.0.1", 1});  // nothing listens
  opts.max_send_queue_per_peer = 8;
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());

  for (int i = 0; i < 50; i++) {
    net.Send(MakeMessage("gossip.digest", "lonely", "ghost",
                         "m" + std::to_string(i)));
  }
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages_sent, 50u);
  // 8 queued for the (never-arriving) reconnect; the rest shed oldest-first.
  EXPECT_EQ(stats.overflow_drops, 42u);
  EXPECT_EQ(stats.messages_dropped, 42u);
}

TEST(TcpNetworkTest, UnknownDestinationCountsUnreachable) {
  TcpNetworkOptions opts = Pair::Opts("solo");
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());
  net.Send(MakeMessage("gossip.digest", "solo", "nobody", ""));
  EXPECT_EQ(net.stats().unreachable_drops, 1u);
}

TEST(TcpNetworkTest, HostileBytesAreRejectedNotFatal) {
  TcpNetworkOptions opts = Pair::Opts("victim");
  opts.max_frame_bytes = 1 << 20;
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(net.Register("victim",
                           [&](const Message&) { delivered++; }).ok());

  auto attack = [&](const std::string& bytes) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net.listen_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    // Give the reader a moment, then hang up.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(fd);
  };

  attack("GET / HTTP/1.1\r\n\r\n");          // garbage magic
  attack(std::string(kFrameHeaderBytes, '\0'));  // zeroed header

  // A declared 2GB frame must be rejected from the header alone.
  std::string huge;
  Message m = MakeMessage("gossip.digest", "x", "victim", "");
  EncodeFrame(m, &huge);
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\xff';
  huge[8] = '\x7f';
  attack(huge);

  // A CRC-valid frame whose type fails the allowlist: EncodeFrame does not
  // validate (it trusts local senders), which is what a hostile remote
  // would exploit — the decoder must still refuse it.
  std::string evil;
  EncodeFrame(MakeMessage("evil.cmd", "x", "victim", ""), &evil);
  attack(evil);

  ASSERT_TRUE(WaitFor([&] { return net.stats().frames_rejected >= 4; }, 3000));
  EXPECT_EQ(delivered.load(), 0);

  // The transport survived; a well-formed frame still flows.
  std::string good;
  EncodeFrame(MakeMessage("gossip.digest", "x", "victim", "fine"), &good);
  attack(good);
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 1; }, 3000));
}

TEST(TcpNetworkTest, RpcOverTcpLoopback) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  TcpNetwork server_net(server_opts);
  ASSERT_TRUE(server_net.Start().ok());

  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod(
      "rpc.echo", [](const Slice& request, std::string* response) {
        response->assign(request.data(), request.size());
        return Status::OK();
      });
  dispatcher.Start(RpcServerOptions{});
  ASSERT_TRUE(server_net
                  .Register("server",
                            [&](const Message& m) {
                              if (m.type == RpcDispatcher::kRequestType) {
                                dispatcher.HandleMessage(&server_net, "server",
                                                         m);
                              }
                            })
                  .ok());

  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());

  RpcClient client("client", &client_net);
  std::string response;
  Status s = client.Call("server", "rpc.echo", "ping-pong", &response,
                         /*timeout_millis=*/5000);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(response, "ping-pong");
  dispatcher.Stop();
}

TEST(TcpNetworkTest, FaultShimDropsAndDelays) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  TcpNetwork server_net(server_opts);
  ASSERT_TRUE(server_net.Start().ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(server_net
                  .Register("server", [&](const Message&) { delivered++; })
                  .ok());

  std::atomic<int> sent{0};
  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  client_opts.send_fault = [&](const Message&) {
    TcpNetworkOptions::Fault fault;
    fault.drop = (sent++ % 2) == 0;  // drop every other frame
    return fault;
  };
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client_net.PeerUp("server"); }, 3000));

  for (int i = 0; i < 10; i++) {
    client_net.Send(MakeMessage("gossip.digest", "client", "server", "x"));
  }
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 5; }, 3000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(delivered.load(), 5);
  EXPECT_EQ(client_net.stats().random_drops, 5u);
}

}  // namespace
}  // namespace sebdb
