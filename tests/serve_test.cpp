// Tests for the serving subsystem: micro-batched predictions must be
// bitwise-identical to serial predict() under concurrent producers, the
// sharded LRU cache must hit/evict deterministically, the model store must
// lazy-load / hot-reload / ref-count archives, the protocol parser must
// reject malformed lines without dying, and a full server session must
// match direct model evaluation bitwise.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reference_protocol.hpp"
#include "serve/server.hpp"
#include "serve/tcp_server.hpp"
#include "test_data.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using common::Dataset;
using common::ModelRegistry;
using common::ModelSpec;
using grid::Config;
using grid::ParameterSpec;
using testdata::TempModelDir;
using testdata::zoo_spec;

Dataset sample_power_law(std::size_t n, std::uint64_t seed) {
  return testdata::sample_noisy_power_law(n, seed);
}

common::RegressorPtr fit_family(const std::string& family, std::uint64_t seed = 7) {
  auto model = ModelRegistry::instance().create(family, zoo_spec(family));
  model->fit(sample_power_law(256, seed));
  return model;
}

/// The online-serving fixture: a streaming CPR fit for OBSERVE/REFIT tests.
/// Noise-free samples keep the pre-drift fit tight.
common::RegressorPtr fit_online(std::size_t n = 256, std::uint64_t seed = 7) {
  auto model =
      ModelRegistry::instance().create("cpr-online", zoo_spec("cpr-online"));
  model->fit(testdata::sample_power_law(n, seed));
  return model;
}

/// The drifted truth OBSERVEs report: a constant factor above the law the
/// archive was fitted on (log-space shift of ln 8 ≈ 2.08).
double shifted_truth(const Config& config) {
  return 8.0 * testdata::power_law(config);
}

std::string predict_line(const std::string& name, const Config& config) {
  std::ostringstream line;
  line.precision(17);
  line << "PREDICT " << name << " " << config[0] << "," << config[1];
  return line.str();
}

std::string observe_line(const std::string& name, const Config& config,
                         double seconds) {
  std::ostringstream line;
  line.precision(17);
  line << "OBSERVE " << name << " " << config[0] << "," << config[1] << " "
       << seconds;
  return line.str();
}

/// Wraps a fitted model in a store-style handle without touching disk.
serve::ModelHandle handle_for(common::RegressorPtr model, std::uint64_t generation = 1) {
  auto loaded = std::make_shared<serve::LoadedModel>();
  loaded->name = model->type_tag();
  loaded->generation = generation;
  loaded->model = std::move(model);
  return loaded;
}

Config random_config(Rng& rng) {
  return {rng.log_uniform(32.0, 4096.0), rng.log_uniform(32.0, 4096.0)};
}

// ---------------------------------------------------------------- batcher

TEST(MicroBatcher, ConcurrentProducersMatchSerialPredictBitwise) {
  const serve::ModelHandle cpr_handle = handle_for(fit_family("cpr"));
  const serve::ModelHandle knn_handle = handle_for(fit_family("knn"));

  // The work-conserving default and an opt-in linger.
  for (const std::uint64_t max_wait_us : {std::uint64_t{0}, std::uint64_t{100}}) {
    SCOPED_TRACE("max_wait_us=" + std::to_string(max_wait_us));
    serve::MicroBatcher::Options options;
    options.workers = 3;
    options.max_batch = 16;
    options.max_wait_us = max_wait_us;
    serve::MicroBatcher batcher(options);

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 64;
    std::vector<std::vector<Config>> configs(kThreads);
    std::vector<std::vector<std::future<double>>> futures(kThreads);

    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      producers.emplace_back([&, t] {
        Rng rng(1000 + t);
        for (std::size_t i = 0; i < kPerThread; ++i) {
          // Interleave the two families so batches must group per model.
          const auto& handle = (i % 2 == 0) ? cpr_handle : knn_handle;
          Config config = random_config(rng);
          futures[t].push_back(batcher.submit(handle, config));
          configs[t].push_back(std::move(config));
        }
      });
    }
    for (auto& producer : producers) producer.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto& handle = (i % 2 == 0) ? cpr_handle : knn_handle;
        const double expected = handle->model->predict(configs[t][i]);
        const double got = futures[t][i].get();
        EXPECT_EQ(expected, got) << "thread " << t << " request " << i
                                 << " diverged from serial predict()";
      }
    }

    const auto stats = batcher.stats();
    EXPECT_EQ(stats.submitted, kThreads * kPerThread);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.max_batch_seen, options.max_batch);
  }
}

TEST(MicroBatcher, RejectsWrongArityAndPropagatesModelErrors) {
  const serve::ModelHandle handle = handle_for(fit_family("cpr"));
  serve::MicroBatcher batcher({});
  EXPECT_THROW(batcher.submit(handle, Config{1.0}), CheckError);        // 1 of 2 dims
  EXPECT_THROW(batcher.submit(handle, Config{1.0, 2.0, 3.0}), CheckError);
}

TEST(MicroBatcher, DrainsQueuedWorkOnDestruction) {
  const serve::ModelHandle handle = handle_for(fit_family("cpr"));
  for (const std::uint64_t max_wait_us : {std::uint64_t{0}, std::uint64_t{50}}) {
    std::vector<std::future<double>> futures;
    {
      serve::MicroBatcher::Options options;
      options.workers = 1;
      options.max_batch = 4;
      options.max_wait_us = max_wait_us;
      serve::MicroBatcher batcher(options);
      Rng rng(3);
      for (std::size_t i = 0; i < 64; ++i) {
        futures.push_back(batcher.submit(handle, random_config(rng)));
      }
    }  // destructor must resolve every promise
    for (auto& future : futures) EXPECT_GT(future.get(), 0.0);
  }
}

/// A cpr model whose predict_batch blocks while its gate is closed, so a
/// test can hold a batcher worker busy at a known point. Registered as the
/// `gated-cpr` family (factory and archive loader both wrap `cpr`).
class GatedCpr : public common::Regressor {
 public:
  explicit GatedCpr(common::RegressorPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return "GatedCPR"; }
  std::string type_tag() const override { return "gated-cpr"; }
  std::size_t input_dims() const override { return inner_->input_dims(); }
  void fit(const Dataset& train) override { inner_->fit(train); }
  double predict(const Config& x) const override { return inner_->predict(x); }
  std::size_t model_size_bytes() const override { return inner_->model_size_bytes(); }
  void save(SerialSink& sink) const override { inner_->save(sink); }

  std::vector<double> predict_batch(const linalg::Matrix& x) const override {
    std::unique_lock<std::mutex> lock(gate_->mu);
    ++gate_->entered;
    gate_->cv.notify_all();
    gate_->cv.wait(lock, [this] { return gate_->open; });
    lock.unlock();
    return inner_->predict_batch(x);
  }

  void close() {
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->open = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      gate_->open = true;
    }
    gate_->cv.notify_all();
  }
  /// Blocks until `calls` predict_batch calls have entered the gate.
  void wait_entered(int calls) {
    std::unique_lock<std::mutex> lock(gate_->mu);
    gate_->cv.wait(lock, [&] { return gate_->entered >= calls; });
  }

 private:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = true;
    int entered = 0;
  };
  common::RegressorPtr inner_;
  std::unique_ptr<Gate> gate_ = std::make_unique<Gate>();
};

std::unique_ptr<GatedCpr> fit_gated_cpr() {
  static const bool registered = [] {
    auto& registry = ModelRegistry::instance();
    registry.register_family(
        "gated-cpr", "cpr whose predict_batch waits on a test gate",
        [](const ModelSpec& spec) -> common::RegressorPtr {
          return std::make_unique<GatedCpr>(ModelRegistry::instance().create("cpr", spec));
        },
        [](BufferSource& source) -> common::RegressorPtr {
          return std::make_unique<GatedCpr>(ModelRegistry::instance().load("cpr", source));
        });
    return true;
  }();
  EXPECT_TRUE(registered);
  auto model = ModelRegistry::instance().create("gated-cpr", zoo_spec("cpr"));
  model->fit(sample_power_law(256, 7));
  return std::unique_ptr<GatedCpr>(static_cast<GatedCpr*>(model.release()));
}

TEST(MicroBatcher, QueuedSameModelRequestsRunAsOneBatchWhenTheWorkerFrees) {
  // Default options (no linger), one worker: the first request holds the
  // worker inside predict_batch while K more requests queue behind it.
  auto owned = fit_gated_cpr();
  GatedCpr& gated = *owned;
  const serve::ModelHandle handle = handle_for(std::move(owned));
  serve::MicroBatcher::Options options;
  options.workers = 1;
  serve::MicroBatcher batcher(options);

  constexpr std::size_t kQueued = 12;
  Rng rng(5);
  std::vector<Config> configs;
  std::vector<std::future<double>> futures;
  gated.close();
  configs.push_back(random_config(rng));
  futures.push_back(batcher.submit(handle, configs.back()));
  gated.wait_entered(1);  // the worker now holds the first request
  for (std::size_t i = 0; i < kQueued; ++i) {
    configs.push_back(random_config(rng));
    futures.push_back(batcher.submit(handle, configs.back()));
  }
  gated.open();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), gated.predict(configs[i])) << "request " << i;
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.submitted, kQueued + 1);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch_seen, kQueued);
}

TEST(MicroBatcher, LingerDoesNotStrandAnotherModelsRequest) {
  // Two workers and a 100 ms linger. Model X's only request keeps one
  // worker lingering for same-model company; model Y's requests (a full
  // batch of 2) must go to the idle worker at once, not wait out X's linger.
  const serve::ModelHandle x_handle = handle_for(fit_family("cpr"));
  const serve::ModelHandle y_handle = handle_for(fit_family("knn"));
  serve::MicroBatcher::Options options;
  options.workers = 2;
  options.max_batch = 2;
  options.max_wait_us = 100'000;
  serve::MicroBatcher batcher(options);

  Rng rng(9);
  for (int round = 0; round < 3; ++round) {
    const Config x_config = random_config(rng);
    std::future<double> x = batcher.submit(x_handle, x_config);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // X's worker lingers
    const Config y0 = random_config(rng);
    const Config y1 = random_config(rng);
    const auto start = std::chrono::steady_clock::now();
    std::future<double> first = batcher.submit(y_handle, y0);
    std::future<double> second = batcher.submit(y_handle, y1);
    EXPECT_EQ(first.get(), y_handle->model->predict(y0));
    EXPECT_EQ(second.get(), y_handle->model->predict(y1));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::milliseconds(50)) << "round " << round;
    EXPECT_EQ(x.get(), x_handle->model->predict(x_config));
  }
}

// ------------------------------------------------------------------ cache

TEST(PredictionCache, LruEvictionOrderIsDeterministic) {
  serve::PredictionCache cache(3, 1);  // one shard: global LRU order
  cache.put("a", 1.0);
  cache.put("b", 2.0);
  cache.put("c", 3.0);
  ASSERT_TRUE(cache.get("a").has_value());  // refresh a: LRU order b < c < a
  cache.put("d", 4.0);                      // evicts b
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_TRUE(cache.get("d").has_value());

  const auto counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.hits, 4u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.entries, 3u);
}

TEST(PredictionCache, ShardedHitAccountingIsDeterministic) {
  serve::PredictionCache cache(64, 4);
  for (int i = 0; i < 32; ++i) cache.put("key" + std::to_string(i), i);
  for (int i = 0; i < 32; ++i) {
    const auto value = cache.get("key" + std::to_string(i));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, static_cast<double>(i));
  }
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(cache.get("absent" + std::to_string(i)));

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 32u);
  EXPECT_EQ(counters.misses, 8u);
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.entries, 32u);
  EXPECT_EQ(counters.shards, 4u);
}

TEST(PredictionCache, ZeroCapacityDisables) {
  serve::PredictionCache cache(0);
  cache.put("a", 1.0);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.counters().hits + cache.counters().misses, 0u);
}

TEST(PredictionCache, KeyIsExactInEveryValue) {
  const Config base{1024.0, 3.141592653589793};
  Config one_ulp = base;
  one_ulp[1] = std::nextafter(one_ulp[1], 4.0);  // a distinct query the model sees
  EXPECT_EQ(serve::PredictionCache::make_key("m", 1, base),
            serve::PredictionCache::make_key("m", 1, Config{1024.0, 3.141592653589793}));
  EXPECT_NE(serve::PredictionCache::make_key("m", 1, base),
            serve::PredictionCache::make_key("m", 1, one_ulp));
  // Model name and generation are part of the key: reloads age out entries.
  EXPECT_NE(serve::PredictionCache::make_key("m", 1, base),
            serve::PredictionCache::make_key("m", 2, base));
  EXPECT_NE(serve::PredictionCache::make_key("m", 1, base),
            serve::PredictionCache::make_key("n", 1, base));
}

TEST(PredictionCache, KeyNormalizesSignedZeroAndNan) {
  // -0.0 == 0.0 yet has other bytes: the key must collapse them, or two
  // inputs the model cannot distinguish would occupy distinct entries.
  EXPECT_EQ(serve::PredictionCache::make_key("m", 1, Config{0.0, 5.0}),
            serve::PredictionCache::make_key("m", 1, Config{-0.0, 5.0}));
  // Every NaN payload and sign collapses to one canonical NaN.
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  const double negative_payload = std::copysign(std::nan("0x7ff"), -1.0);
  EXPECT_EQ(serve::PredictionCache::make_key("m", 1, Config{quiet}),
            serve::PredictionCache::make_key("m", 1, Config{negative_payload}));
  EXPECT_NE(serve::PredictionCache::make_key("m", 1, Config{quiet}),
            serve::PredictionCache::make_key("m", 1, Config{0.0}));
}

// ------------------------------------------------------------------ store

TEST(ModelStore, LazyLoadUnloadAndRefCounting) {
  TempModelDir dir("store");
  dir.save("pl", *fit_family("cpr"));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  EXPECT_EQ(store.available(), std::vector<std::string>{"pl"});
  EXPECT_TRUE(store.loaded_names().empty());  // lazy: nothing resident yet

  const serve::ModelHandle handle = store.acquire("pl");
  EXPECT_EQ(handle->model->type_tag(), "cpr");
  EXPECT_EQ(store.loaded_names(), std::vector<std::string>{"pl"});
  EXPECT_EQ(store.acquire("pl").get(), handle.get());  // cached instance

  store.unload("pl");
  EXPECT_TRUE(store.loaded_names().empty());
  // The in-flight handle keeps serving after UNLOAD.
  EXPECT_GT(handle->model->predict({100.0, 100.0}), 0.0);

  EXPECT_THROW(store.acquire("missing"), CheckError);
  EXPECT_THROW(store.unload("pl"), CheckError);
  EXPECT_THROW(store.acquire("../pl"), CheckError);  // path traversal
}

TEST(ModelStore, HotReloadReplacesChangedArchive) {
  TempModelDir dir("reload");
  const std::string path = dir.save("pl", *fit_family("cpr", /*seed=*/7));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  const serve::ModelHandle first = store.acquire("pl");

  // Rewrite the archive with a different fit and force a distinct mtime
  // (filesystem timestamps can be coarser than this test's runtime).
  dir.save("pl", *fit_family("cpr", /*seed=*/8));
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) + std::chrono::seconds(2));

  const serve::ModelHandle second = store.acquire("pl");
  EXPECT_NE(first.get(), second.get());
  EXPECT_GT(second->generation, first->generation);
  // Both instances stay fully usable (ref-counting).
  const Config probe{100.0, 100.0};
  EXPECT_GT(first->model->predict(probe), 0.0);
  EXPECT_GT(second->model->predict(probe), 0.0);
}

TEST(ModelStore, CorruptRewriteKeepsServingTheResidentInstance) {
  TempModelDir dir("midwrite");
  const std::string path = dir.save("pl", *fit_family("cpr"));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  const serve::ModelHandle resident = store.acquire("pl");

  // Simulate a non-atomic rewrite caught mid-flight: changed mtime, body
  // truncated. acquire() must fall back to the resident instance instead
  // of throwing an ERR at clients.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "CPRARCH1";
    const std::uint64_t body_size = 100;  // promised but not delivered
    out.write(reinterpret_cast<const char*>(&body_size), sizeof(body_size));
    out << "short";
  }
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) + std::chrono::seconds(2));
  EXPECT_EQ(store.acquire("pl").get(), resident.get());

  // Without a resident instance the corrupt archive fails loudly.
  store.unload("pl");
  EXPECT_THROW(store.acquire("pl"), CheckError);
}

TEST(ModelStore, SameMtimeRewriteIsCaughtBySizeChange) {
  TempModelDir dir("samemtime");
  const std::string path = dir.save("pl", *fit_family("cpr"));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  const serve::ModelHandle first = store.acquire("pl");
  const auto mtime = std::filesystem::last_write_time(path);

  // Rewrite the archive within the filesystem's timestamp granularity: a
  // different family yields a different byte size, and the mtime is pinned
  // back to the original value. An mtime-only change check serves stale.
  dir.save("pl", *fit_family("knn"));
  ASSERT_NE(std::filesystem::file_size(path), first->size);
  std::filesystem::last_write_time(path, mtime);

  const serve::ModelHandle second = store.acquire("pl");
  EXPECT_NE(second.get(), first.get());
  EXPECT_GT(second->generation, first->generation);
  // The rewritten archive really got loaded (knn rides the log-space wrapper).
  EXPECT_NE(second->model->type_tag(), first->model->type_tag());
}

TEST(ModelStore, TransientStatErrorRetriesInsteadOfArmingThrottle) {
  TempModelDir dir("statretry");
  const std::string path = dir.save("pl", *fit_family("cpr", /*seed=*/7));
  const std::string replacement = dir.save("next", *fit_family("cpr", /*seed=*/8));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(50));
  const serve::ModelHandle first = store.acquire("pl");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // pass the throttle

  // An atomic-rename rewrite caught in the gap where the archive is absent:
  // acquire keeps serving the resident instance, and the failed stat must
  // not count as a completed freshness check.
  std::filesystem::rename(path, path + ".gone");
  EXPECT_EQ(store.acquire("pl").get(), first.get());

  std::filesystem::rename(replacement, path);
  std::filesystem::last_write_time(path, first->mtime + std::chrono::seconds(2));
  // Immediately inside the 50ms window after the failed stat: had the error
  // armed the throttle, this acquire would pin the stale instance.
  const serve::ModelHandle second = store.acquire("pl");
  EXPECT_NE(second.get(), first.get());
  EXPECT_GT(second->generation, first->generation);
}

// ------------------------------------------------------ quantized archives

TEST(ModelStore, ServesQuantizedArchives) {
  TempModelDir dir("quantserve");
  const auto model = fit_family("cpr");
  core::save_model_file(*model, core::model_file_path(dir.path(), "pl"),
                        QuantMode::I8);

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  const serve::ModelHandle handle = store.acquire("pl");
  EXPECT_EQ(handle->model->archive_quant_mode(), QuantMode::I8);
  // The dequantized model serves predictions close to the fp64 original
  // (the exact tolerance contract lives in quant_test).
  const Config probe{100.0, 100.0};
  const double original = model->predict(probe);
  EXPECT_NEAR(handle->model->predict(probe), original, 0.15 * std::abs(original));
}

TEST(ModelStore, HotReloadSwapsFp64ToInt8InPlace) {
  TempModelDir dir("quantreload");
  const std::string path = dir.save("pl", *fit_family("cpr", /*seed=*/7));

  serve::ModelStore store(dir.path(), std::chrono::milliseconds(0));
  const serve::ModelHandle first = store.acquire("pl");
  EXPECT_EQ(first->model->archive_quant_mode(), QuantMode::F64);

  // Rewrite the same model as an int8 archive (the shrink-the-fleet
  // rollout), with a forced mtime step for coarse filesystem clocks.
  core::save_model_file(*fit_family("cpr", /*seed=*/7), path, QuantMode::I8);
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) + std::chrono::seconds(2));

  const serve::ModelHandle second = store.acquire("pl");
  EXPECT_NE(second.get(), first.get());
  EXPECT_GT(second->generation, first->generation);
  EXPECT_EQ(second->model->archive_quant_mode(), QuantMode::I8);
  EXPECT_GT(second->model->predict({100.0, 100.0}), 0.0);
}

TEST(Server, ObserveAndRefitOnQuantizedModelErrByName) {
  // A cpr-online family model saved through a lossy encoding supports
  // OBSERVE structurally — but replaying observations on dequantized
  // factors would silently diverge from offline training, so the store
  // must refuse both verbs with the model and mode named in the message.
  TempModelDir dir("quantobserve");
  core::save_model_file(*fit_online(), core::model_file_path(dir.path(), "olq"),
                        QuantMode::I8);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 1;
  serve::Server server(options);

  // Serving itself works.
  EXPECT_EQ(server.handle_line(predict_line("olq", {100.0, 200.0})).text.rfind("OK ", 0),
            0u);
  for (const std::string& line :
       {observe_line("olq", {100.0, 200.0}, 0.25), std::string("REFIT olq")}) {
    const auto reply = server.handle_line(line);
    EXPECT_EQ(reply.text.rfind("ERR ", 0), 0u) << reply.text;
    EXPECT_NE(reply.text.find("olq"), std::string::npos) << reply.text;
    EXPECT_NE(reply.text.find("int8"), std::string::npos) << reply.text;
    EXPECT_NE(reply.text.find("--quantize=fp64"), std::string::npos) << reply.text;
  }
  // The refusal must not have poisoned the resident model.
  EXPECT_EQ(server.handle_line(predict_line("olq", {100.0, 200.0})).text.rfind("OK ", 0),
            0u);
}

// --------------------------------------------------------------- protocol

TEST(Protocol, ParsesWellFormedRequests) {
  const auto predict = serve::parse_request("PREDICT mm 1024,512,8");
  EXPECT_EQ(predict.kind, serve::RequestKind::Predict);
  EXPECT_EQ(predict.model, "mm");
  EXPECT_EQ(predict.values, (Config{1024.0, 512.0, 8.0}));

  const auto observe = serve::parse_request("OBSERVE mm 1024,512,8 0.125");
  EXPECT_EQ(observe.kind, serve::RequestKind::Observe);
  EXPECT_EQ(observe.model, "mm");
  EXPECT_EQ(observe.values, (Config{1024.0, 512.0, 8.0}));
  EXPECT_EQ(observe.seconds, 0.125);

  EXPECT_EQ(serve::parse_request("REFIT mm").kind, serve::RequestKind::Refit);
  EXPECT_EQ(serve::parse_request("REFIT mm").model, "mm");

  EXPECT_EQ(serve::parse_request("LOAD mm").kind, serve::RequestKind::Load);
  EXPECT_EQ(serve::parse_request("UNLOAD mm").model, "mm");
  EXPECT_EQ(serve::parse_request("STATS").kind, serve::RequestKind::Stats);
  EXPECT_EQ(serve::parse_request("QUIT").kind, serve::RequestKind::Quit);
}

TEST(Protocol, RejectsMalformedLines) {
  const char* malformed[] = {
      "",                       // empty
      "PREDICT",                // missing model + values
      "PREDICT mm",             // missing values
      "PREDICT mm 1,2 3",       // wrong arity (stray token)
      "PREDICT mm 1,,2",        // empty value entry
      "PREDICT mm 1,nan",       // NaN value
      "PREDICT mm 1,inf",       // infinite value
      "PREDICT mm 1,zzz",       // non-numeric value
      "PREDICT mm 1.5e2junk",   // trailing junk
      "OBSERVE",                // missing everything
      "OBSERVE mm",             // missing values + seconds
      "OBSERVE mm 1,2",         // missing seconds
      "OBSERVE mm 1,2 0",       // non-positive seconds
      "OBSERVE mm 1,2 -1.5",    // negative seconds
      "OBSERVE mm 1,2 nan",     // NaN seconds
      "OBSERVE mm 1,2 inf",     // infinite seconds
      "OBSERVE mm 1,nan 3",     // NaN value
      "OBSERVE mm 1,2 3 4",     // stray token
      "REFIT",                  // missing model
      "REFIT mm now",           // stray token
      "LOAD",                   // missing model
      "LOAD a b",               // stray token
      "STATS now",              // stray token
      "FROBNICATE mm",          // unknown command
      "predict mm 1,2",         // commands are case-sensitive
  };
  for (const char* line : malformed) {
    EXPECT_THROW(serve::parse_request(line), CheckError) << "accepted: '" << line << "'";
  }
}

TEST(Protocol, ParserAcceptsExactlyWhatTheReferenceAccepts) {
  // Field spellings at the edges of std::from_chars vs std::stod: signs,
  // bare dots, signed zero, subnormal and out-of-range magnitudes,
  // non-finite words, hex floats, dangling exponents, empty entries,
  // trailing junk and embedded control bytes.
  const std::vector<std::string> fields = {
      "1", "+1", "-1", ".5", "5.", "-.5", "+.5", "-0", "0", "0.0", "-0.0",
      "1e-310", "-1e-310", "1e-400", "1e400", "-1e400", "inf", "-inf", "infinity",
      "nan", "NaN", "-nan", "nan(123)", "0x1p3", "0X10", "0x", "1e", "1e+", "1e-",
      "1E5", "1e+5", "-1.25e-3", "4096", "1024.5", "00012", "0.1",
      "2.2250738585072014e-308", "2.2250738585072011e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "1.7976931348623158e308",
      "123456789012345678901234567890", "0.30000000000000000000000000000001",
      "1,,2", "1,", ",1", ",", "1.5e2junk", "12abc", "1_000", "1.2.3", "--1", "+-1",
      "e5", ".", "-", "+", std::string("1\0", 2), "\xc2\xb5" "1"};
  std::vector<std::string> lines = {
      "", " ", "\t", "PREDICT", "PREDICT mm", "PREDICT mm 1 2", "OBSERVE mm 1",
      "OBSERVE mm 1,2 3 4", "REFIT", "REFIT mm", "LOAD a b", "UNLOAD mm", "STATS",
      "STATS now", "METRICS", "QUIT", "FRAME BINARY", "FRAME", "predict mm 1",
      "  PREDICT \t mm \v 1,2 \f\r", "PREDICT\tmm\t1,2", "PREDICT  mm   3,4  "};
  for (const std::string& a : fields) {
    lines.push_back("PREDICT mm " + a);
    lines.push_back("OBSERVE mm 1," + a + " 0.5");
    lines.push_back("OBSERVE mm 1 " + a);
    for (const std::string& b : fields) lines.push_back("PREDICT mm " + a + "," + b);
  }
  std::size_t accepted = 0;
  for (const std::string& line : lines) {
    const std::string expected = reference::describe_parse(
        [](const std::string& l) { return reference::parse_request(l); }, line);
    const std::string got = reference::describe_parse(
        [](const std::string& l) { return serve::parse_request(l); }, line);
    EXPECT_EQ(got, expected) << "line: '" << line << "'";
    if (expected.rfind("kind=", 0) == 0) ++accepted;
    EXPECT_EQ(serve::is_frame_binary_request(line),
              reference::is_frame_binary_request(line))
        << "line: '" << line << "'";
  }
  // The corpus exercises both outcomes heavily.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(lines.size() - accepted, 2000u);
}

TEST(Protocol, PredictionReplyRoundTripsBitwise) {
  for (const double value : {1.5e-6, 3.141592653589793, 8.67e4}) {
    const std::string reply = serve::format_prediction(value);
    ASSERT_EQ(reply.rfind("OK ", 0), 0u);
    EXPECT_EQ(std::stod(reply.substr(3)), value);
  }
  EXPECT_EQ(serve::format_error("CPR_CHECK failed: (x) at f.cpp:1 — bad news"),
            "ERR bad news");
}

// ----------------------------------------------------------------- server

TEST(Server, SessionMatchesDirectEvaluationBitwise) {
  TempModelDir dir("server");
  const auto cpr_model = fit_family("cpr");
  const auto knn_model = fit_family("knn");
  dir.save("pl-cpr", *cpr_model);
  dir.save("pl-knn", *knn_model);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  serve::Server server(options);

  EXPECT_EQ(server.handle_line("LOAD pl-cpr").text,
            "OK loaded pl-cpr type=cpr dims=2 bytes=" +
                std::to_string(cpr_model->model_size_bytes()));
  EXPECT_EQ(server.handle_line("LOAD pl-knn").text.rfind("OK loaded pl-knn", 0), 0u);

  Rng rng(11);
  for (std::size_t i = 0; i < 32; ++i) {
    const Config config = random_config(rng);
    const auto& model = (i % 2 == 0) ? cpr_model : knn_model;
    const std::string name = (i % 2 == 0) ? "pl-cpr" : "pl-knn";
    std::ostringstream line;
    line.precision(17);
    line << "PREDICT " << name << " " << config[0] << "," << config[1];
    const auto reply = server.handle_line(line.str());
    ASSERT_EQ(reply.text.rfind("OK ", 0), 0u) << reply.text;
    EXPECT_EQ(std::stod(reply.text.substr(3)), model->predict(config))
        << "request " << i << " diverged from direct predict()";
  }

  // Repeats are served from the cache and stay bitwise-identical.
  const auto first = server.handle_line("PREDICT pl-cpr 100,200");
  const auto second = server.handle_line("PREDICT pl-cpr 100,200");
  EXPECT_EQ(first.text, second.text);
  EXPECT_GE(server.cache_counters().hits, 1u);

  const auto stats = server.handle_line("STATS");
  EXPECT_NE(stats.text.find("predicts"), std::string::npos);
  EXPECT_NE(stats.text.find("cache_hits"), std::string::npos);
  EXPECT_EQ(stats.text.substr(stats.text.size() - 2), "OK");

  // Errors come back as ERR replies, never exceptions.
  EXPECT_EQ(server.handle_line("PREDICT nosuch 1,2").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("PREDICT pl-cpr 1,2,3").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("PREDICT pl-cpr 1,nan").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("UNLOAD nosuch").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("garbage").text.rfind("ERR ", 0), 0u);

  const auto quit = server.handle_line("QUIT");
  EXPECT_TRUE(quit.quit);
  EXPECT_EQ(quit.text, "OK bye");
}

// Two configurations equal to 12 significant digits are still two queries:
// the second PREDICT must not be answered from the first one's cache entry.
TEST(Server, ConfigsEqualToTwelveDigitsGetTheirOwnPrediction) {
  TempModelDir dir("cache_key");
  const auto model = fit_family("cpr");
  dir.save("pl", *model);
  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.cache_capacity = 64;
  serve::Server server(options);

  const auto twelve_digits = [](double v) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.12g", v);
    return std::string(text);
  };
  Rng rng(61);
  Config a, b;
  bool found = false;
  for (int attempt = 0; attempt < 200 && !found; ++attempt) {
    a = random_config(rng);
    b = {a[0] * (1.0 + 1e-13), a[1]};
    found = twelve_digits(a[0]) == twelve_digits(b[0]) && model->predict(a) != model->predict(b);
  }
  ASSERT_TRUE(found) << "no configuration pair whose predictions differ";
  for (const Config& config : {a, b}) {
    EXPECT_EQ(server.handle_line(predict_line("pl", config)).text,
              serve::format_prediction(model->predict(config)));
  }
  EXPECT_EQ(server.cache_counters().misses, 2u);
}

TEST(Server, LazyLoadOnPredictAndConcurrentClients) {
  TempModelDir dir("concurrent");
  const auto model = fit_family("cpr");
  dir.save("pl", *model);

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  options.batcher.max_batch = 8;
  options.cache_capacity = 64;  // small: forces evictions under load
  serve::Server server(options);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kRequests = 48;
  std::vector<std::string> failures[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c % 3);  // overlapping streams: some cache hits
      for (std::size_t i = 0; i < kRequests; ++i) {
        const Config config = random_config(rng);
        std::ostringstream line;
        line.precision(17);
        line << "PREDICT pl " << config[0] << "," << config[1];
        const auto reply = server.handle_line(line.str());
        const double expected = model->predict(config);
        if (reply.text != serve::format_prediction(expected)) {
          failures[c].push_back(line.str() + " -> " + reply.text);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty())
        << failures[c].size() << " mismatches, first: " << failures[c].front();
  }
  // The first PREDICT lazy-loaded the model without an explicit LOAD.
  EXPECT_EQ(server.store().loaded_names(), std::vector<std::string>{"pl"});
  const auto snapshot = server.request_stats().snapshot();
  EXPECT_EQ(snapshot.predicts, kClients * kRequests);
  EXPECT_EQ(snapshot.errors, 0u);
}

// ------------------------------------------- online learning (OBSERVE/REFIT)

TEST(Server, ObserveRefitPredictMatchesOfflineReplayBitwise) {
  TempModelDir dir("online");
  const std::string path = dir.save("pl", *fit_online());

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  serve::Server server(options);

  // The offline twin: the same archive replaying the same observations in
  // the same order, refreshed once. Serving must match it bitwise.
  const common::RegressorPtr offline = core::load_model_file(path);

  Rng rng(21);
  std::vector<Config> probes;
  for (int i = 0; i < 12; ++i) probes.push_back(random_config(rng));
  std::vector<std::string> before;  // pre-refit replies prime the cache
  for (const Config& probe : probes) {
    const auto reply = server.handle_line(predict_line("pl", probe));
    ASSERT_EQ(reply.text.rfind("OK ", 0), 0u) << reply.text;
    before.push_back(reply.text);
  }

  for (int i = 0; i < 48; ++i) {
    const Config config = random_config(rng);
    const double seconds = shifted_truth(config);
    const auto reply = server.handle_line(observe_line("pl", config, seconds));
    ASSERT_EQ(reply.text, "OK observed pl buffered=" + std::to_string(i + 1));
    offline->observe(config, seconds);
  }
  const auto refit = server.handle_line("REFIT pl");
  ASSERT_EQ(refit.text.rfind("OK refit pl generation=", 0), 0u) << refit.text;
  EXPECT_NE(refit.text.find("observations=48"), std::string::npos) << refit.text;
  offline->refresh();

  // Post-refit predictions are bitwise-identical to the offline replay, and
  // the generation-keyed cache entries of the old model never resurface.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto reply = server.handle_line(predict_line("pl", probes[i]));
    ASSERT_EQ(reply.text.rfind("OK ", 0), 0u) << reply.text;
    EXPECT_EQ(std::stod(reply.text.substr(3)), offline->predict(probes[i]));
    EXPECT_NE(reply.text, before[i]) << "stale pre-refit cache entry served";
  }

  const auto snapshot = server.request_stats().snapshot();
  EXPECT_EQ(snapshot.observes, 48u);
  EXPECT_EQ(snapshot.refits, 1u);
  EXPECT_EQ(snapshot.refit_failures, 0u);
  EXPECT_EQ(server.store().buffered_observations(), 0u);  // refit drained it
}

TEST(Server, RefitReducesRollingDriftError) {
  TempModelDir dir("drift");
  // A small initial fit so the streamed observations dominate the refit.
  dir.save("pl", *fit_online(/*n=*/64));

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 1;
  options.drift_window = 64;
  serve::Server server(options);

  Rng rng(31);
  const auto stream = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Config config = random_config(rng);
      const auto reply =
          server.handle_line(observe_line("pl", config, shifted_truth(config)));
      ASSERT_EQ(reply.text.rfind("OK observed", 0), 0u) << reply.text;
    }
  };

  stream(192);
  const double before = server.drift().abs_log_error;
  EXPECT_GT(before, 1.0);  // the 8x shift is ln 8 ≈ 2.08 in log space

  ASSERT_EQ(server.handle_line("REFIT pl").text.rfind("OK refit", 0), 0u);

  stream(64);  // the same drifted truth, now scored against the refit model
  const double after = server.drift().abs_log_error;
  EXPECT_LT(after, before * 0.5) << "refit did not recover the drift error";

  const std::string metrics = server.handle_line("METRICS").text;
  EXPECT_NE(metrics.find("cpr_drift_abs_log_error"), std::string::npos);
  EXPECT_NE(metrics.find("cpr_drift_signed_log_error"), std::string::npos);
  EXPECT_NE(metrics.find("cpr_refits_total 1"), std::string::npos);
  // The post-refit stream is buffered awaiting the next refit.
  EXPECT_NE(metrics.find("cpr_observations_buffered 64"), std::string::npos);
}

TEST(Server, AutoRefitPolicyFiresOffTheRequestPath) {
  TempModelDir dir("autorefit");
  dir.save("pl", *fit_online());

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 1;
  options.refit_after = 8;
  serve::Server server(options);

  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    const Config config = random_config(rng);
    const auto reply =
        server.handle_line(observe_line("pl", config, shifted_truth(config)));
    ASSERT_EQ(reply.text.rfind("OK observed", 0), 0u) << reply.text;
  }
  // The eighth OBSERVE scheduled a background refit; wait for it to land.
  for (int i = 0; i < 500 && server.trainer().completed() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.trainer().completed(), 1u);
  EXPECT_EQ(server.request_stats().snapshot().refits, 1u);
  EXPECT_GT(server.store().acquire("pl")->generation, 1u);
  EXPECT_EQ(server.store().buffered_observations(), 0u);
}

TEST(Server, ObserveAndRefitFailuresAreErrReplies) {
  TempModelDir dir("onlineerr");
  dir.save("static", *fit_family("cpr"));  // family without observe support
  dir.save("pl", *fit_online());

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 1;
  serve::Server server(options);

  EXPECT_EQ(server.handle_line("OBSERVE nosuch 1,2 3").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("OBSERVE pl 1,2,3 4").text.rfind("ERR ", 0), 0u);
  const auto unsupported = server.handle_line("OBSERVE static 100,200 0.5");
  EXPECT_EQ(unsupported.text.rfind("ERR ", 0), 0u);
  EXPECT_NE(unsupported.text.find("does not support"), std::string::npos)
      << unsupported.text;
  EXPECT_EQ(server.handle_line("REFIT static").text.rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.handle_line("REFIT nosuch").text.rfind("ERR ", 0), 0u);

  // Failed refits surface in telemetry; nothing was buffered or published.
  EXPECT_EQ(server.request_stats().snapshot().refit_failures, 2u);
  EXPECT_EQ(server.store().buffered_observations(), 0u);

  // REFIT with an empty buffer is a (trivial) success: warm refresh only.
  const auto empty = server.handle_line("REFIT pl");
  EXPECT_EQ(empty.text.rfind("OK refit pl ", 0), 0u) << empty.text;
  EXPECT_NE(empty.text.find("observations=0"), std::string::npos) << empty.text;
}

TEST(Server, GenerationSwapsStayBitwiseUnderConcurrentPredicts) {
  TempModelDir dir("swap");
  const std::string path = dir.save("pl", *fit_online());

  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.batcher.workers = 2;
  options.cache_capacity = 64;  // small: swaps + evictions under load
  serve::Server server(options);

  constexpr std::size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::string> failures[kClients];
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(200 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto reply = server.handle_line(predict_line("pl", random_config(rng)));
        if (reply.text.rfind("OK ", 0) != 0) failures[c].push_back(reply.text);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Drive three full observe→refit cycles while the clients hammer away,
  // mirroring every call on an offline twin for the final bitwise check.
  // EXPECT (not ASSERT) inside this section: the client threads must join
  // before the test body may return.
  const common::RegressorPtr offline = core::load_model_file(path);
  Rng rng(51);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      const Config config = random_config(rng);
      const double seconds = shifted_truth(config);
      const auto reply = server.handle_line(observe_line("pl", config, seconds));
      EXPECT_EQ(reply.text.rfind("OK observed", 0), 0u) << reply.text;
      offline->observe(config, seconds);
    }
    const auto refit = server.handle_line("REFIT pl");
    EXPECT_EQ(refit.text.rfind("OK refit pl ", 0), 0u) << refit.text;
    offline->refresh();
  }
  stop.store(true);
  for (auto& client : clients) client.join();

  for (const auto& f : failures) {
    EXPECT_TRUE(f.empty()) << f.size() << " ERR replies, first: " << f.front();
  }
  EXPECT_GT(served.load(), 0u);

  // Every in-flight PREDICT rode some published generation; the final one
  // answers bitwise-identically to the offline replay.
  Rng probe_rng(52);
  for (int i = 0; i < 8; ++i) {
    const Config config = random_config(probe_rng);
    const auto reply = server.handle_line(predict_line("pl", config));
    ASSERT_EQ(reply.text.rfind("OK ", 0), 0u) << reply.text;
    EXPECT_EQ(std::stod(reply.text.substr(3)), offline->predict(config));
  }
  EXPECT_EQ(server.request_stats().snapshot().refits, 3u);
  EXPECT_EQ(server.request_stats().snapshot().errors, 0u);
}

// -------------------------------------------------------- TCP front end

/// Minimal blocking loopback client for the socket front end: raw sends
/// plus newline- and binary-framed reads over one internal buffer.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CPR_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    CPR_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
    int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }
  /// Connects to the front end's AF_UNIX listener at `unix_path`.
  explicit TcpClient(const std::string& unix_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CPR_CHECK(fd_ >= 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CPR_CHECK(unix_path.size() < sizeof(addr.sun_path));
    unix_path.copy(addr.sun_path, unix_path.size());
    CPR_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }
  void send_line(const std::string& line) { send_raw(line + "\n"); }
  void send_frame(const std::string& payload) {
    send_raw(serve::encode_frame(payload));
  }

  /// Blocking read of one newline-framed reply (strips the newline);
  /// returns false on EOF.
  bool read_line(std::string& line) {
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      if (!fill()) return false;
    }
    line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

  /// Blocking read of one binary-framed reply; returns false on EOF.
  bool read_frame(std::string& payload) {
    for (;;) {
      if (buffer_.size() >= 4) {
        const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
        const std::uint32_t length = static_cast<std::uint32_t>(bytes[0]) |
                                     (static_cast<std::uint32_t>(bytes[1]) << 8) |
                                     (static_cast<std::uint32_t>(bytes[2]) << 16) |
                                     (static_cast<std::uint32_t>(bytes[3]) << 24);
        if (buffer_.size() >= 4u + length) {
          payload = buffer_.substr(4, length);
          buffer_.erase(0, 4u + length);
          return true;
        }
      }
      if (!fill()) return false;
    }
  }

  /// True once the server has closed the connection (drains the buffer).
  bool at_eof() {
    while (fill()) {
    }
    return true;  // fill() returned false: read() saw EOF
  }

  /// Negotiates binary framing and checks the ack comes in the old framing.
  void negotiate_binary() {
    send_line("FRAME BINARY");
    std::string ack;
    ASSERT_TRUE(read_line(ack));
    ASSERT_EQ(ack, "OK frame=binary");
  }

 private:
  bool fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The front end's two address families.
enum class Family { Tcp, Unix };

/// A server over a fitted model directory plus its socket front end,
/// listening on a TCP port or (Family::Unix) on a Unix socket in the
/// model directory.
struct TcpFixture {
  explicit TcpFixture(serve::TcpServerOptions tcp_options = {},
                      std::uint64_t batcher_max_wait_us = 0,
                      std::size_t cache_capacity = 64, Family family = Family::Tcp)
      : dir("tcp"), model(fit_family("cpr")) {
    dir.save("pl", *model);
    serve::ServerOptions options;
    options.model_dir = dir.path();
    options.batcher.workers = 2;
    options.batcher.max_wait_us = batcher_max_wait_us;
    options.cache_capacity = cache_capacity;
    server = std::make_unique<serve::Server>(options);
    if (family == Family::Unix) tcp_options.unix_path = dir.path() + "/serve.sock";
    tcp = std::make_unique<serve::TcpServer>(*server, tcp_options);
    unix_path = tcp_options.unix_path;
  }

  /// A client of whichever address the front end listens on.
  std::unique_ptr<TcpClient> connect() const {
    return unix_path.empty() ? std::make_unique<TcpClient>(tcp->port())
                             : std::make_unique<TcpClient>(unix_path);
  }

  TempModelDir dir;
  common::RegressorPtr model;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::TcpServer> tcp;
  std::string unix_path;
};

TEST(TcpServer, LoopbackSessionMatchesHandleLineBitwise) {
  for (const Family family : {Family::Tcp, Family::Unix}) {
    SCOPED_TRACE(family == Family::Tcp ? "tcp" : "unix");
    TcpFixture fixture({}, 0, 64, family);
    // The reference server runs the same archives through handle_line —
    // exactly what the stdio frontend writes to a client.
    serve::ServerOptions reference_options;
    reference_options.model_dir = fixture.dir.path();
    reference_options.batcher.workers = 2;
    serve::Server reference(reference_options);

    const auto client = fixture.connect();
    std::vector<std::string> lines = {"LOAD pl"};
    Rng rng(21);
    for (std::size_t i = 0; i < 24; ++i) {
      const Config config = random_config(rng);
      std::ostringstream line;
      line.precision(17);
      line << "PREDICT pl " << config[0] << "," << config[1];
      lines.push_back(line.str());
    }
    lines.push_back("PREDICT nosuch 1,2");  // ERR replies must match too
    lines.push_back("PREDICT pl 1,2,3");
    lines.push_back("garbage");

    for (const auto& line : lines) {
      client->send_line(line);
      std::string reply;
      ASSERT_TRUE(client->read_line(reply)) << line;
      EXPECT_EQ(reply, reference.handle_line(line).text) << line;
    }
  }
}

TEST(TcpServer, BinaryFramingMatchesNewlineReplies) {
  TcpFixture fixture;
  TcpClient newline_client(fixture.tcp->port());
  TcpClient binary_client(fixture.tcp->port());
  binary_client.negotiate_binary();

  Rng rng(33);
  for (std::size_t i = 0; i < 16; ++i) {
    const Config config = random_config(rng);
    std::ostringstream line;
    line.precision(17);
    line << "PREDICT pl " << config[0] << "," << config[1];
    newline_client.send_line(line.str());
    binary_client.send_frame(line.str());
    std::string newline_reply, binary_reply;
    ASSERT_TRUE(newline_client.read_line(newline_reply));
    ASSERT_TRUE(binary_client.read_frame(binary_reply));
    EXPECT_EQ(binary_reply, newline_reply) << line.str();
  }

  // Negotiating twice is an application-level ERR, not a framing violation:
  // the connection stays up.
  binary_client.send_frame("FRAME BINARY");
  std::string reply;
  ASSERT_TRUE(binary_client.read_frame(reply));
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
  binary_client.send_frame("PREDICT pl 100,100");
  ASSERT_TRUE(binary_client.read_frame(reply));
  EXPECT_EQ(reply.rfind("OK ", 0), 0u);
}

TEST(TcpServer, MalformedBinaryFramesGetErrThenCloseNeverDeath) {
  TcpFixture fixture;

  {  // zero-length frame: fatal framing violation
    TcpClient client(fixture.tcp->port());
    client.negotiate_binary();
    client.send_raw(std::string(4, '\0'));
    std::string reply;
    ASSERT_TRUE(client.read_frame(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
    EXPECT_TRUE(client.at_eof());
  }

  {  // oversize declared length: fatal before any payload arrives
    TcpClient client(fixture.tcp->port());
    client.negotiate_binary();
    const std::uint32_t huge = serve::kMaxFrameBytes + 1;
    std::string header(4, '\0');
    header[0] = static_cast<char>(huge & 0xff);
    header[1] = static_cast<char>((huge >> 8) & 0xff);
    header[2] = static_cast<char>((huge >> 16) & 0xff);
    header[3] = static_cast<char>((huge >> 24) & 0xff);
    client.send_raw(header);
    std::string reply;
    ASSERT_TRUE(client.read_frame(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
    EXPECT_TRUE(client.at_eof());
  }

  {  // truncated frame then close: the server just drops the connection
    TcpClient client(fixture.tcp->port());
    client.negotiate_binary();
    const std::string frame = serve::encode_frame("PREDICT pl 100,100");
    client.send_raw(frame.substr(0, frame.size() - 3));
  }

  {  // garbage payload inside a VALID frame: framed ERR, connection lives
    TcpClient client(fixture.tcp->port());
    client.negotiate_binary();
    client.send_frame("\x01\x02 not a protocol line \xff");
    std::string reply;
    ASSERT_TRUE(client.read_frame(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
    client.send_frame("PREDICT pl 100,100");
    ASSERT_TRUE(client.read_frame(reply));
    EXPECT_EQ(reply.rfind("OK ", 0), 0u);
  }

  // After every abuse above the front end still serves new clients.
  TcpClient survivor(fixture.tcp->port());
  survivor.send_line("PREDICT pl 100,100");
  std::string reply;
  ASSERT_TRUE(survivor.read_line(reply));
  EXPECT_EQ(reply.rfind("OK ", 0), 0u);
}

TEST(TcpServer, OversizeNewlineLineIsFatal) {
  serve::TcpServerOptions tcp_options;
  tcp_options.max_line_bytes = 128;
  TcpFixture fixture(tcp_options);
  TcpClient client(fixture.tcp->port());
  client.send_raw(std::string(256, 'x'));  // no newline within the limit
  std::string reply;
  ASSERT_TRUE(client.read_line(reply));
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
  EXPECT_TRUE(client.at_eof());
}

TEST(TcpServer, BusySheddingKeepsReplyOrderUnderSaturation) {
  serve::TcpServerOptions tcp_options;
  tcp_options.max_inflight = 2;  // tiny admission cap: shedding is certain
  // A slow batcher (5ms flush) with no cache keeps admitted requests
  // in flight long enough that a pipelined burst must overrun the cap.
  TcpFixture fixture(tcp_options, /*batcher_max_wait_us=*/5000,
                     /*cache_capacity=*/0);
  TcpClient client(fixture.tcp->port());

  constexpr std::size_t kBurst = 100;
  std::string burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    burst += "PREDICT pl 100," + std::to_string(100 + i) + "\n";
  }
  client.send_raw(burst);

  std::size_t ok = 0, busy = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    std::string reply;
    ASSERT_TRUE(client.read_line(reply)) << "reply " << i;
    if (reply == serve::kBusyReply) {
      ++busy;
    } else {
      ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
      ++ok;
    }
  }
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_GT(ok, 0u);    // the cap admits work, it does not starve
  EXPECT_GT(busy, 0u);  // and the overload was actually shed
  EXPECT_EQ(fixture.server->request_stats().snapshot().sheds, busy);
}

TEST(TcpServer, PartialWriteResumptionWithTinySndbuf) {
  serve::TcpServerOptions tcp_options;
  tcp_options.sndbuf = 1;  // kernel clamps to its floor; still forces
                           // many partial write() returns per reply
  TcpFixture fixture(tcp_options);
  TcpClient client(fixture.tcp->port());
  client.negotiate_binary();

  // Pipeline multi-kilobyte STATS replies without reading a byte, then
  // drain: every frame must arrive complete and in order.
  constexpr std::size_t kRequests = 50;
  for (std::size_t i = 0; i < kRequests; ++i) client.send_frame("STATS");
  for (std::size_t i = 0; i < kRequests; ++i) {
    std::string reply;
    ASSERT_TRUE(client.read_frame(reply)) << "reply " << i;
    EXPECT_NE(reply.find("predicts"), std::string::npos);
    EXPECT_EQ(reply.substr(reply.size() - 2), "OK");
  }
}

TEST(TcpServer, QuitClosesOnlyItsOwnConnection) {
  TcpFixture fixture;
  TcpClient quitter(fixture.tcp->port());
  TcpClient bystander(fixture.tcp->port());

  std::string reply;
  bystander.send_line("PREDICT pl 100,100");
  ASSERT_TRUE(bystander.read_line(reply));
  const std::string expected = reply;

  quitter.send_line("QUIT");
  ASSERT_TRUE(quitter.read_line(reply));
  EXPECT_EQ(reply, "OK bye");
  EXPECT_TRUE(quitter.at_eof());

  // The other connection — and the whole front end — keeps serving.
  bystander.send_line("PREDICT pl 100,100");
  ASSERT_TRUE(bystander.read_line(reply));
  EXPECT_EQ(reply, expected);
  TcpClient fresh(fixture.tcp->port());
  fresh.send_line("PREDICT pl 100,100");
  ASSERT_TRUE(fresh.read_line(reply));
  EXPECT_EQ(reply, expected);
}

TEST(TcpServer, DrainShutdownFlushesInflightReplies) {
  for (const Family family : {Family::Tcp, Family::Unix}) {
    SCOPED_TRACE(family == Family::Tcp ? "tcp" : "unix");
    // 100ms batch flush: the reply is guaranteed still in flight when the
    // drain starts, so it must be completed and flushed by the drain.
    TcpFixture fixture({}, /*batcher_max_wait_us=*/100'000, /*cache_capacity=*/0, family);
    const auto client = fixture.connect();
    client->send_line("PREDICT pl 100,100");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // parsed+dispatched
    fixture.tcp->shutdown(/*drain=*/true);
    std::string reply;
    ASSERT_TRUE(client->read_line(reply));
    EXPECT_EQ(reply, serve::format_prediction(fixture.model->predict({100.0, 100.0})));
    EXPECT_TRUE(client->at_eof());
    // The drained front end removes its socket file.
    if (family == Family::Unix) {
      EXPECT_FALSE(std::filesystem::exists(fixture.unix_path));
    }
  }
}

// ---------------------------------------------------------- observability

TEST(Server, MetricsVerbRendersValidExposition) {
  TempModelDir dir("metrics");
  dir.save("pl", *fit_family("cpr"));
  serve::ServerOptions options;
  options.model_dir = dir.path();
  serve::Server server(options);

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(server.handle_line("PREDICT pl 100,200").text.rfind("OK ", 0), 0u);
  }
  server.handle_line("PREDICT nosuch 1,2");  // one error

  const auto reply = server.handle_line("METRICS");
  ASSERT_GE(reply.text.size(), 2u);
  EXPECT_EQ(reply.text.substr(reply.text.size() - 2), "OK");
  EXPECT_FALSE(reply.quit);

  const std::string exposition = reply.text.substr(0, reply.text.size() - 2);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(exposition, &error)) << error;
  EXPECT_NE(exposition.find("cpr_predicts_total 5"), std::string::npos);
  EXPECT_NE(exposition.find("cpr_request_errors_total 1"), std::string::npos);
  EXPECT_NE(exposition.find("# TYPE cpr_request_latency_seconds histogram"),
            std::string::npos);
  // Cache callbacks: the repeated PREDICT missed once, then hit 4 times
  // (the unknown-model request fails before it touches the cache).
  EXPECT_NE(exposition.find("cpr_cache_hits_total 4"), std::string::npos);
  EXPECT_NE(exposition.find("cpr_cache_misses_total 1"), std::string::npos);
  // Direct render and the verb agree (modulo samples recorded in between).
  EXPECT_NE(server.metrics_text().find("cpr_predicts_total"), std::string::npos);
}

TEST(Server, StatsHistogramPercentilesAreReproducible) {
  TempModelDir dir("reprod");
  dir.save("pl", *fit_family("cpr"));
  serve::ServerOptions options;
  options.model_dir = dir.path();
  serve::Server server(options);
  for (int i = 0; i < 32; ++i) {
    server.handle_line("PREDICT pl 100," + std::to_string(100 + i));
  }
  // Percentiles are a pure function of the exact bucket counts: reading
  // them twice — or merging snapshot copies in any order — cannot differ.
  const auto first = server.request_stats().snapshot();
  const auto second = server.request_stats().snapshot();
  EXPECT_EQ(first.p50_seconds, second.p50_seconds);
  EXPECT_EQ(first.p99_seconds, second.p99_seconds);
  EXPECT_EQ(first.p999_seconds, second.p999_seconds);

  const auto snap = server.request_stats().request_latency().snapshot();
  auto merged = snap;
  merged.merge(snap);  // doubled counts: same nearest-rank boundaries
  EXPECT_EQ(merged.count(), 2 * snap.count());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(merged.percentile(q), snap.percentile(q));
  }
}

TEST(Server, TraceSamplingCapturesSpanTaxonomy) {
  TempModelDir dir("trace");
  dir.save("pl", *fit_family("cpr"));
  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.trace_sample = 1;
  serve::Server server(options);

  ASSERT_EQ(server.handle_line("PREDICT pl 100,200").text.rfind("OK ", 0), 0u);
  ASSERT_EQ(server.handle_line("PREDICT pl 100,200").text.rfind("OK ", 0), 0u);
  EXPECT_EQ(server.traces().collected(), 2u);

  const std::string json = server.traces().render_chrome_json();
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, &error)) << error;
  // First request: cache miss through the batcher; second: cache hit.
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"handle\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"predict\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(json.find("\"model\":\"pl\""), std::string::npos);
  EXPECT_NE(json.find("\"verb\":\"PREDICT\""), std::string::npos);
}

TEST(Server, TraceSamplingOffCollectsNothing) {
  TempModelDir dir("notrace");
  dir.save("pl", *fit_family("cpr"));
  serve::ServerOptions options;
  options.model_dir = dir.path();
  serve::Server server(options);  // trace_sample defaults to 0

  for (int i = 0; i < 8; ++i) server.handle_line("PREDICT pl 100,200");
  EXPECT_EQ(server.traces().collected(), 0u);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(server.traces().render_chrome_json(), &error))
      << error;
}

TEST(TcpServer, TracedRequestsCarryAdmissionAndFlushSpans) {
  TcpFixture fixture;
  fixture.server->traces().set_sample_every(1);
  TcpClient client(fixture.tcp->port());
  std::string reply;
  for (int i = 0; i < 4; ++i) {
    client.send_line("PREDICT pl 100," + std::to_string(100 + i));
    ASSERT_TRUE(client.read_line(reply));
    ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  }
  // read_line returning means the reply was flushed, which is also where
  // the trace is finished — no extra synchronization needed here.
  EXPECT_EQ(fixture.server->traces().collected(), 4u);
  const std::string json = fixture.server->traces().render_chrome_json();
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, &error)) << error;
  EXPECT_NE(json.find("\"name\":\"admission_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);

  // Stage histograms cover every dispatched request, sampled or not.
  EXPECT_EQ(fixture.server->stats().admission_wait().snapshot().count(), 4u);
  EXPECT_EQ(fixture.server->stats().flush_time().snapshot().count(), 4u);
}

TEST(Server, ConcurrentMetricsAndStatsWithTraffic) {
  // Hammers the exposition/stats render paths while PREDICT traffic records
  // into the same counters and histograms: the lock-free registry must hold
  // up under --tsan (this test is in the sanitizer serve suite).
  TempModelDir dir("hammer");
  dir.save("pl", *fit_family("cpr"));
  serve::ServerOptions options;
  options.model_dir = dir.path();
  options.trace_sample = 2;
  serve::Server server(options);

  constexpr std::size_t kTraffic = 4;
  constexpr std::size_t kRequests = 64;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTraffic; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto reply = server.handle_line(
            "PREDICT pl 100," + std::to_string(100 + (t * kRequests + i) % 32));
        ASSERT_EQ(reply.text.rfind("OK ", 0), 0u) << reply.text;
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < 32; ++i) {
      const auto reply = server.handle_line("METRICS");
      ASSERT_EQ(reply.text.substr(reply.text.size() - 2), "OK");
      std::string error;
      ASSERT_TRUE(obs::validate_prometheus_text(
          reply.text.substr(0, reply.text.size() - 2), &error))
          << error;
    }
  });
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < 32; ++i) {
      ASSERT_NE(server.handle_line("STATS").text.find("predicts"), std::string::npos);
      server.traces().render_chrome_json();
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(server.request_stats().snapshot().predicts, kTraffic * kRequests);
  EXPECT_EQ(server.request_stats().snapshot().errors, 0u);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(server.traces().render_chrome_json(), &error))
      << error;
}

TEST(TcpServer, ConnectionGaugeTracksOpenSockets) {
  TcpFixture fixture;
  auto connections = [&] {
    return fixture.server->request_stats().snapshot().connections;
  };
  EXPECT_EQ(connections(), 0);
  {
    TcpClient a(fixture.tcp->port());
    TcpClient b(fixture.tcp->port());
    // The gauge updates when the loop registers/unregisters the socket.
    std::string reply;
    a.send_line("PREDICT pl 100,100");
    ASSERT_TRUE(a.read_line(reply));
    b.send_line("PREDICT pl 100,100");
    ASSERT_TRUE(b.read_line(reply));
    EXPECT_EQ(connections(), 2);
  }
  for (int i = 0; i < 200 && connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(connections(), 0);
}

}  // namespace
}  // namespace cpr
