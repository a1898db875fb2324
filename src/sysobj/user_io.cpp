#include "sysobj/user_io.hpp"

namespace clouds::sysobj {

namespace {
enum class IoOp : std::uint8_t { write = 60, read_line = 61 };
}

Workstation::Workstation(ra::Node& node) : node_(node) {
  node_.ratp().bindService(net::kPortUserIo,
                           [this](sim::Process& self, net::NodeId, const Message& request) {
                             return serve(self, request);
                           });
}

std::string Workstation::joinedOutput(WindowId window, const std::string& sep) {
  std::string out;
  for (const auto& line : windows_[window].output) {
    if (!out.empty()) out += sep;
    out += line;
  }
  return out;
}

Bytes Workstation::serve(sim::Process& self, const Message& request) {
  node_.cpu().compute(self, node_.cost().syscall);
  Decoder d(request);
  Encoder reply;
  auto op = d.u8();
  auto window = d.u32();
  if (!op.ok() || !window.ok()) {
    reply.u8(static_cast<std::uint8_t>(Errc::bad_argument));
    return std::move(reply).take();
  }
  Terminal& term = windows_[window.value()];
  switch (static_cast<IoOp>(op.value())) {
    case IoOp::write: {
      auto text = d.str();
      if (!text.ok()) {
        reply.u8(static_cast<std::uint8_t>(Errc::bad_argument));
        break;
      }
      term.output.push_back(std::move(text).value());
      node_.simulation().trace(node_.name(), "tty",
                               "w" + std::to_string(window.value()) + ": " + term.output.back());
      reply.u8(static_cast<std::uint8_t>(Errc::ok));
      break;
    }
    case IoOp::read_line: {
      if (term.input.empty()) {
        // No input pending: the paper's user would type; our deterministic
        // terminals fail fast instead of blocking forever.
        reply.u8(static_cast<std::uint8_t>(Errc::not_found));
        break;
      }
      reply.u8(static_cast<std::uint8_t>(Errc::ok));
      reply.str(term.input.front());
      term.input.pop_front();
      break;
    }
    default:
      reply.u8(static_cast<std::uint8_t>(Errc::bad_argument));
  }
  return std::move(reply).take();
}

Result<void> IoClient::write(sim::Process& self, net::NodeId workstation, WindowId window,
                             const std::string& text) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(IoOp::write));
  e.u32(window);
  e.str(text);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, workstation, net::kPortUserIo,
                                                 std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY_ASSIGN(status, d.u8());
  if (static_cast<Errc>(status) != Errc::ok) {
    return makeError(static_cast<Errc>(status), "terminal write failed");
  }
  return okResult();
}

Result<std::string> IoClient::readLine(sim::Process& self, net::NodeId workstation,
                                       WindowId window) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(IoOp::read_line));
  e.u32(window);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, workstation, net::kPortUserIo,
                                                 std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY_ASSIGN(status, d.u8());
  if (static_cast<Errc>(status) != Errc::ok) {
    return makeError(static_cast<Errc>(status), "terminal read failed (no input pending?)");
  }
  return d.str();
}

}  // namespace clouds::sysobj
