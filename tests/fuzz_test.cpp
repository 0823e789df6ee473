// Fuzz-style robustness tests: deterministic pseudo-random, mutated and
// truncated inputs thrown at every text-facing surface — the serve protocol
// parser, a full Server session, the model archive loader, the tuner's
// --space axis grammar, and registry hyper values. The contract everywhere
// is total parsing: clean CheckError (or an ERR reply), never a crash, hang
// or foreign exception. The suite runs under ASan/UBSan via
// `tools/verify.sh --sanitize`, which is where memory bugs on these paths
// would surface.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reference_protocol.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_data.hpp"
#include "tune/search_space.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using common::ModelRegistry;
using testdata::TempModelDir;

/// Random byte string (full 0..255 range, so embedded NULs, control bytes
/// and invalid UTF-8 are all exercised).
std::string random_bytes(Rng& rng, std::size_t max_length) {
  const auto length = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_length)));
  std::string bytes(length, '\0');
  for (auto& byte : bytes) byte = static_cast<char>(rng.uniform_int(0, 255));
  return bytes;
}

/// Asserts that fn(input) either succeeds or throws CheckError — nothing
/// else may escape.
template <typename Fn>
void expect_total(Fn&& fn, const std::string& input, const char* surface) {
  try {
    fn(input);
  } catch (const CheckError&) {
    // The documented failure mode.
  } catch (const std::exception& e) {
    FAIL() << surface << " leaked a foreign exception for input '" << input
           << "': " << e.what();
  }
}

// --------------------------------------------------------------- protocol

TEST(ProtocolFuzz, RandomLinesNeverCrashTheParser) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    expect_total([](const std::string& line) { serve::parse_request(line); },
                 random_bytes(rng, 64), "parse_request");
  }
}

TEST(ProtocolFuzz, TruncatedAndMutatedValidLinesNeverCrash) {
  const std::string valid[] = {
      "PREDICT mm 1024,512,8", "OBSERVE mm 1024,512,8 0.25", "REFIT mm",
      "LOAD mm",               "UNLOAD mm",                  "STATS",
      "QUIT",
  };
  // Every prefix of every valid line (truncated mid-token, mid-number, ...).
  for (const auto& line : valid) {
    for (std::size_t cut = 0; cut <= line.size(); ++cut) {
      expect_total([](const std::string& l) { serve::parse_request(l); },
                   line.substr(0, cut), "parse_request");
    }
  }
  // Random single-byte mutations.
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::string line = valid[static_cast<std::size_t>(rng.uniform_int(0, 6))];
    const auto pos =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
    line[pos] = static_cast<char>(rng.uniform_int(0, 255));
    expect_total([](const std::string& l) { serve::parse_request(l); }, line,
                 "parse_request");
  }
}

TEST(ProtocolFuzz, ParserMatchesTheReferenceOnRandomAndMutatedLines) {
  // Random bytes rarely parse; mutations of numeric value lists exercise
  // the from_chars fast path against std::stod field by field.
  const auto check = [](const std::string& line) {
    EXPECT_EQ(reference::describe_parse(
                  [](const std::string& l) { return serve::parse_request(l); }, line),
              reference::describe_parse(
                  [](const std::string& l) { return reference::parse_request(l); }, line))
        << "line: '" << line << "'";
  };
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) check(random_bytes(rng, 48));
  const std::string alphabet = "0123456789+-.,eExXpPinfaINFA \t";
  const std::string valid[] = {"PREDICT mm 1024,512.5,8e-3",
                               "OBSERVE mm 1.5e3,-2,0.25 0.125"};
  for (int i = 0; i < 20000; ++i) {
    std::string line = valid[i % 2];
    const int edits = static_cast<int>(rng.uniform_int(1, 3));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(8, static_cast<std::int64_t>(line.size()) - 1));
      const char c = alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0: line[pos] = c; break;
        case 1: line.insert(pos, 1, c); break;
        default: line.erase(pos, 1); break;
      }
    }
    check(line);
  }
}

TEST(ProtocolFuzz, BinaryFrameDecoderIsTotalOnRandomBytes) {
  // Random byte streams fed in random-sized chunks: the decoder must either
  // produce frames, wait for more bytes, or throw CheckError — and once it
  // has thrown (the stream is unsynchronisable) it must stay poisoned.
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    serve::FrameDecoder decoder;
    std::string stream = random_bytes(rng, 256);
    bool poisoned = false;
    while (!stream.empty()) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(stream.size())));
      decoder.feed(std::string_view(stream).substr(0, chunk));
      stream.erase(0, chunk);
      try {
        std::string payload;
        while (decoder.next(payload)) {
          EXPECT_LE(payload.size(), serve::kMaxFrameBytes);
        }
        EXPECT_FALSE(poisoned) << "a poisoned decoder must keep throwing";
      } catch (const CheckError&) {
        poisoned = true;
      }
    }
  }
}

TEST(ProtocolFuzz, TruncatedAndMutatedValidFramesNeverCrash) {
  const std::string frames[] = {
      serve::encode_frame("PREDICT mm 1024,512,8"),
      serve::encode_frame("STATS"),
      serve::encode_frame(std::string(1000, 'x')),
  };
  // Every truncation point of a valid frame: the decoder must simply wait.
  for (const auto& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      serve::FrameDecoder decoder;
      decoder.feed(std::string_view(frame).substr(0, cut));
      std::string payload;
      EXPECT_FALSE(decoder.next(payload)) << "cut=" << cut;
    }
  }
  // Single-byte mutations (mostly of the length prefix): total behaviour.
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    std::string frame = frames[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    frame[pos] = static_cast<char>(rng.uniform_int(0, 255));
    serve::FrameDecoder decoder;
    decoder.feed(frame);
    try {
      std::string payload;
      while (decoder.next(payload)) {
      }
    } catch (const CheckError&) {
      // Declared-length violations are the documented failure mode.
    }
  }
}

TEST(ServerFuzz, RandomSessionsAlwaysGetOkOrErrReplies) {
  TempModelDir dir("fuzz_server");
  auto model = ModelRegistry::instance().create("knn", testdata::zoo_spec("knn"));
  model->fit(testdata::sample_noisy_power_law(128, 7));
  dir.save("pl", *model);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  serve::Server server(options);

  Rng rng(3);
  std::size_t ok_replies = 0;
  for (int i = 0; i < 600; ++i) {
    // Interleave garbage with valid traffic so the session stays healthy
    // in between malformed lines.
    std::string line;
    if (i % 5 == 0) {
      line = "PREDICT pl 100,200";
    } else {
      line = random_bytes(rng, 48);
    }
    const auto reply = server.handle_line(line);  // contract: never throws
    ASSERT_FALSE(reply.text.empty());
    const bool ok = reply.text.rfind("OK", 0) == 0;
    const bool err = reply.text.rfind("ERR ", 0) == 0;
    EXPECT_TRUE(ok || err) << "unexpected reply '" << reply.text << "'";
    if (ok) ++ok_replies;
    ASSERT_FALSE(reply.quit);  // random bytes must not terminate the session
  }
  EXPECT_GE(ok_replies, 120u);  // the interleaved valid PREDICTs all served
  EXPECT_EQ(server.handle_line("PREDICT pl 100,200").text.rfind("OK ", 0), 0u);
}

TEST(ServerFuzz, ObserveRefitTrafficIsTotal) {
  // The online-learning verbs under hostile traffic: valid OBSERVE/REFIT/
  // PREDICT interleaved with single-byte mutants of an OBSERVE line. Every
  // reply must be OK or ERR; a small buffer exercises the overflow path.
  TempModelDir dir("fuzz_observe");
  auto model =
      ModelRegistry::instance().create("cpr-online", testdata::zoo_spec("cpr-online"));
  model->fit(testdata::sample_noisy_power_law(128, 7));
  dir.save("ol", *model);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 1;
  options.observe_buffer = 32;
  serve::Server server(options);

  Rng rng(5);
  std::size_t ok_replies = 0;
  for (int i = 0; i < 400; ++i) {
    std::string line = "OBSERVE ol 100,200 0.25";
    switch (i % 6) {
      case 0: break;
      case 1: line = "PREDICT ol 100,200"; break;
      case 2: line = "REFIT ol"; break;
      default: {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
        line[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      }
    }
    const auto reply = server.handle_line(line);
    ASSERT_FALSE(reply.text.empty());
    const bool ok = reply.text.rfind("OK", 0) == 0;
    const bool err = reply.text.rfind("ERR ", 0) == 0;
    EXPECT_TRUE(ok || err) << "unexpected reply '" << reply.text << "'";
    if (ok) ++ok_replies;
    ASSERT_FALSE(reply.quit);
  }
  EXPECT_GE(ok_replies, 200u);  // all the unmutated traffic served
  EXPECT_EQ(server.handle_line("PREDICT ol 100,200").text.rfind("OK ", 0), 0u);
}

TEST(ServerFuzz, MetricsVerbStaysValidThroughHostileTraffic) {
  // The METRICS exposition and the trace serializer must stay well-formed
  // no matter what garbage the session mixed in before them.
  TempModelDir dir("fuzz_metrics");
  auto model = ModelRegistry::instance().create("knn", testdata::zoo_spec("knn"));
  model->fit(testdata::sample_noisy_power_law(128, 11));
  dir.save("pl", *model);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  options.trace_sample = 1;
  serve::Server server(options);

  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    std::string line;
    if (i % 7 == 0) {
      line = "PREDICT pl 100,200";
    } else if (i % 7 == 3) {
      line = "METRICS";
    } else {
      line = random_bytes(rng, 48);
    }
    const auto reply = server.handle_line(line);
    ASSERT_FALSE(reply.text.empty());
    if (line == "METRICS") {
      ASSERT_EQ(reply.text.substr(reply.text.size() - 2), "OK");
      std::string error;
      ASSERT_TRUE(obs::validate_prometheus_text(
          reply.text.substr(0, reply.text.size() - 2), &error))
          << "iteration " << i << ": " << error;
    }
  }
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(server.traces().render_chrome_json(), &error))
      << error;
}

// ------------------------------------------------------------------ trace

TEST(TraceFuzz, SerializerIsTotalOverRandomSpans) {
  // Arbitrary bytes in names/args/timestamps must always render to JSON the
  // structural validator accepts (escaping is total, end < start clamps).
  Rng rng(13);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<obs::ChromeEvent> events;
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 20));
    for (std::size_t i = 0; i < count; ++i) {
      obs::ChromeEvent event;
      event.name = random_bytes(rng, 24);
      event.tid = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
      event.start_ns = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
      event.end_ns = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
      const auto args = static_cast<std::size_t>(rng.uniform_int(0, 3));
      for (std::size_t a = 0; a < args; ++a) {
        event.args.emplace_back(random_bytes(rng, 12), random_bytes(rng, 12));
      }
      events.push_back(std::move(event));
    }
    const std::string json = obs::render_chrome_events(std::move(events));
    std::string error;
    ASSERT_TRUE(obs::validate_chrome_trace(json, &error))
        << "iteration " << iteration << ": " << error << "\n" << json;
  }
}

TEST(TraceFuzz, ValidatorIsTotalOnRandomDocuments) {
  // The validator itself must never crash on arbitrary bytes — it reads
  // untrusted files in cpr_obscheck.
  Rng rng(14);
  std::string error;
  for (int i = 0; i < 3000; ++i) {
    obs::validate_chrome_trace(random_bytes(rng, 128), &error);
    obs::validate_prometheus_text(random_bytes(rng, 128), &error);
  }
  // Mutations of a valid document exercise deeper parser states.
  const std::string valid =
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":1,\"tid\":3,"
      "\"ts\":10.500,\"dur\":2.000,\"args\":{\"k\":\"v\"}}]}";
  for (int i = 0; i < 2000; ++i) {
    std::string doc = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(doc.size()) - 1));
    doc[pos] = static_cast<char>(rng.uniform_int(0, 255));
    obs::validate_chrome_trace(doc, &error);
  }
}

// ---------------------------------------------------------------- archive

TEST(ArchiveFuzz, RandomBytesAndTruncationsRejectedCleanly) {
  const auto path = testdata::temp_path("cpr_fuzz_archive.cprm");
  Rng rng(4);

  // Pure random files (some with the right magic prefix to get past the
  // header check into body parsing).
  for (int i = 0; i < 300; ++i) {
    std::string bytes = random_bytes(rng, 256);
    if (i % 3 == 0) bytes = "CPRARCH1" + bytes;
    if (i % 7 == 0) bytes = "CPRMODL1" + bytes;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                 "load_model_file");
  }

  // Truncations and single-byte corruptions of a genuine archive.
  auto model = ModelRegistry::instance().create("cpr", testdata::zoo_spec("cpr"));
  model->fit(testdata::sample_noisy_power_law(192, 8));
  core::save_model_file(*model, path);
  std::vector<char> archive(std::filesystem::file_size(path));
  {
    std::ifstream in(path, std::ios::binary);
    in.read(archive.data(), static_cast<std::streamsize>(archive.size()));
  }
  for (int i = 0; i < 60; ++i) {
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(archive.size()) - 1));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(archive.data(), static_cast<std::streamsize>(cut));
    }
    expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                 "load_model_file (truncated)");
  }
  for (int i = 0; i < 120; ++i) {
    std::vector<char> corrupt = archive;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
    corrupt[pos] = static_cast<char>(rng.uniform_int(0, 255));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    // A flipped payload byte may still deserialize (e.g. a mantissa bit);
    // anything else must be a CheckError.
    expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                 "load_model_file (corrupted)");
  }
  std::filesystem::remove(path);
}

TEST(ArchiveFuzz, QuantizedPayloadsRejectedCleanlyUnderMutation) {
  // The v2 (quantized) archive surface: block tags, per-column scale/offset
  // words, and tensor lengths are all new parsing territory, so corruptions
  // there must fail as cleanly as the v1 paths above. One sweep per lossy
  // encoding, since they take different branches in read_quantized_block.
  const auto path = testdata::temp_path("cpr_fuzz_quant_archive.cprm");
  auto model = ModelRegistry::instance().create("cpr", testdata::zoo_spec("cpr"));
  model->fit(testdata::sample_noisy_power_law(192, 8));
  Rng rng(15);
  for (const QuantMode mode : {QuantMode::F32, QuantMode::F16, QuantMode::I8}) {
    core::save_model_file(*model, path, mode);
    std::vector<char> archive(std::filesystem::file_size(path));
    {
      std::ifstream in(path, std::ios::binary);
      in.read(archive.data(), static_cast<std::streamsize>(archive.size()));
    }
    const auto write = [&](const std::vector<char>& bytes, std::size_t n) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(n));
    };
    // Every-truncation sweep hits mid-header, mid-scale-block and
    // mid-tensor cuts without needing to know the offsets.
    for (std::size_t cut = 0; cut < archive.size();
         cut += 1 + cut / 16) {  // dense early (headers), sparser in the bulk
      write(archive, cut);
      expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                   "load_model_file (truncated quantized)");
    }
    // Random single-byte corruptions across the whole archive (tag bytes,
    // scale/offset words, codes, lengths — whatever the offset lands on).
    for (int i = 0; i < 150; ++i) {
      std::vector<char> corrupt = archive;
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
      corrupt[pos] = static_cast<char>(rng.uniform_int(0, 255));
      write(corrupt, corrupt.size());
      expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                   "load_model_file (corrupted quantized)");
    }
    // Targeted: the version-2 quant-mode byte itself, set to every value.
    // It sits right after the "cpr" tag string + version u64 in the body.
    const std::size_t mode_offset = 8 + 8       // magic + body size
                                    + 8 + 3     // tag length + "cpr"
                                    + 8;        // version
    ASSERT_LT(mode_offset, archive.size());
    for (int v = 0; v < 256; ++v) {
      std::vector<char> corrupt = archive;
      corrupt[mode_offset] = static_cast<char>(v);
      write(corrupt, corrupt.size());
      expect_total([](const std::string& p) { core::load_model_file(p); }, path,
                   "load_model_file (mode byte)");
    }
  }
  std::filesystem::remove(path);
}

// -------------------------------------------------- tuner / search space

TEST(TunerFuzz, MalformedAxisStringsRejectedCleanly) {
  const char* malformed[] = {
      "=1|2",        "k=",          "k=1..",      "k=..2",
      "k=2..1",      "k=1..2:bogus", "k=a..b",     "k=1|",       "k=|",
      "k=1||2",      "lambda=0..1:log", "k=1.5..2.5:int", "k=nan..2",
      "k=1..inf",    "rank",        ",",          "a=1,,b=2",
  };
  for (const char* text : malformed) {
    EXPECT_THROW(tune::parse_search_space(text), CheckError)
        << "accepted: '" << text << "'";
  }
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    expect_total([](const std::string& text) { tune::parse_search_space(text); },
                 random_bytes(rng, 40), "parse_search_space");
  }
}

TEST(TunerFuzz, JunkHyperValuesFailLoudlyNotFatally) {
  const auto data = testdata::sample_noisy_power_law(64, 9);
  common::ModelSpec base;
  base.params = testdata::power_law_params();
  tune::TunerOptions options;
  options.folds = 2;
  options.rungs = 1;
  options.threads = 2;
  // A syntactically-valid space whose values no family understands: every
  // candidate fails to construct and the tuner reports the cause instead of
  // crashing worker threads.
  const tune::SearchSpace space({common::HyperAxis::grid("rank", {"banana", "-e9"})});
  EXPECT_THROW(tune::Tuner(options).run("cpr", base, data, space), CheckError);
}

TEST(RegistryFuzz, RandomHyperKeysAndValuesRejectedCleanly) {
  Rng rng(6);
  const auto families = ModelRegistry::instance().family_names();
  for (int i = 0; i < 400; ++i) {
    const auto& family =
        families[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1))];
    common::ModelSpec spec = testdata::zoo_spec(family);
    const std::string key = i % 2 == 0 ? "rank" : random_bytes(rng, 12);
    spec.hyper[key] = random_bytes(rng, 12);
    try {
      ModelRegistry::instance().create(family, spec);
    } catch (const CheckError&) {
      // Unknown key or unparsable value — the documented failure mode.
    } catch (const std::exception& e) {
      FAIL() << "family " << family << " leaked a foreign exception: " << e.what();
    }
  }
}

}  // namespace
}  // namespace cpr
