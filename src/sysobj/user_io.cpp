#include "sysobj/user_io.hpp"

namespace clouds::sysobj {

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

Message Workstation::serve(sim::Process& self, const Message& message) {
  node_.cpu().compute(self, node_.cost().syscall);
  auto request = codec::decode<IoRequest>(message);
  if (!request.ok()) return codec::encode(IoReply{.status = Errc::bad_argument}).message();
  IoRequest& r = request.value();
  Terminal& term = windows_[r.window];
  IoReply reply{.op = r.op};
  switch (r.op) {
    case IoOp::write:
      term.output.push_back(std::move(r.text));
      node_.simulation().trace(node_.name(), "tty",
                               "w" + std::to_string(r.window) + ": " + term.output.back());
      break;
    case IoOp::read_line:
      if (term.input.empty()) {
        // No input pending: the paper's user would type; our deterministic
        // terminals fail fast instead of blocking forever.
        reply.status = Errc::not_found;
        break;
      }
      reply.line = std::move(term.input.front());
      term.input.pop_front();
      break;
  }
  return codec::encode(reply).message();
}

Result<IoReply> IoClient::call(sim::Process& self, net::NodeId workstation,
                               const IoRequest& request, const char* failure) {
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, workstation, net::kPortUserIo,
                                                 codec::encode(request).message()));
  return codec::decodeReply(reply, IoReply{.op = request.op},
                            [failure](const IoReply&) { return failure; });
}

Result<void> IoClient::write(sim::Process& self, net::NodeId workstation, WindowId window,
                             const std::string& text) {
  CLOUDS_TRY(call(self, workstation, {.op = IoOp::write, .window = window, .text = text},
                  "terminal write failed"));
  return okResult();
}

Result<std::string> IoClient::readLine(sim::Process& self, net::NodeId workstation,
                                       WindowId window) {
  CLOUDS_TRY_ASSIGN(reply, call(self, workstation, {.op = IoOp::read_line, .window = window},
                                "terminal read failed (no input pending?)"));
  return std::move(reply.line);
}

}  // namespace clouds::sysobj
