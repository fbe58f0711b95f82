// Serving fixtures shared by the net and service suites: the small fleet
// they all serve, and a registry + service + server + loop-thread harness
// torn down in order. Header-only, like counting_alloc.h; each suite passes
// its own server and service options.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace ropuf::test {

/// A fleet of `devices` with 16 pairs of 5-stage rings, provisioned for v2:
/// the shape servebench serves.
inline registry::Registry small_registry(std::size_t devices = 24) {
  registry::FleetSpec spec;
  spec.devices = devices;
  spec.stages = 5;
  spec.pairs = 16;
  spec.seed = 0x5e12e;
  return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
}

/// Registry + service + server + loop thread, torn down in order. run()
/// spawns any further shard reactors itself, so the harness owns one thread
/// whatever the shard count.
class ServerHarness {
 public:
  explicit ServerHarness(net::ServerOptions options = {},
                         service::AuthServiceOptions auth_options = {})
      : registry_(small_registry()),
        service_(&registry_, auth_options),
        server_(&service_, fast(options)) {
    port_ = server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() {
    server_.request_stop();
    thread_.join();
  }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  const registry::Registry& registry() const { return registry_; }
  net::AuthServer& server() { return server_; }
  std::uint16_t port() const { return port_; }

  net::AuthClient client(std::size_t window = 128) const {
    net::ClientOptions options;
    options.port = port_;
    options.window = window;
    net::AuthClient c(options);
    c.connect();
    return c;
  }

 private:
  /// Tests poll fast regardless of what a test case configures.
  static net::ServerOptions fast(net::ServerOptions options) {
    options.port = 0;
    options.poll_interval_ms = 2;
    return options;
  }

  registry::Registry registry_;
  service::AuthService service_;
  net::AuthServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

}  // namespace ropuf::test
