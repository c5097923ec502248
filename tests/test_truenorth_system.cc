// Tests for the multi-core TrueNorth system model and the trainer's
// statistics, which it records into the metric registry while the
// profiler is on.

#include <gtest/gtest.h>

#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/hw/truenorth.h"
#include "neuro/snn/trainer.h"

namespace neuro {
namespace {

TEST(TrueNorthSystem, CoreCountArithmetic)
{
    EXPECT_EQ(hw::trueNorthCoresFor(1), 1u);
    EXPECT_EQ(hw::trueNorthCoresFor(256), 1u);
    EXPECT_EQ(hw::trueNorthCoresFor(257), 2u);
    EXPECT_EQ(hw::trueNorthCoresFor(300), 2u);
    EXPECT_EQ(hw::trueNorthCoresFor(1024), 4u);
}

TEST(TrueNorthSystem, SingleCoreMatchesCoreModel)
{
    const hw::Design core = hw::buildTrueNorthCore();
    const hw::Design system = hw::buildTrueNorthSystem(256, 784);
    EXPECT_NEAR(system.totalAreaMm2(), core.totalAreaMm2(),
                core.totalAreaMm2() * 0.02);
    EXPECT_EQ(system.cyclesPerImage(), core.cyclesPerImage());
}

TEST(TrueNorthSystem, AreaAndEnergyScaleWithCores)
{
    const hw::Design one = hw::buildTrueNorthSystem(256, 784);
    const hw::Design two = hw::buildTrueNorthSystem(300, 784);
    const hw::Design four = hw::buildTrueNorthSystem(1000, 784);
    EXPECT_NEAR(two.totalAreaMm2() / one.totalAreaMm2(), 2.0, 0.1);
    EXPECT_NEAR(four.totalAreaMm2() / one.totalAreaMm2(), 4.0, 0.2);
    // Latency does not scale: cores tick in parallel.
    EXPECT_EQ(two.timePerImageNs(), one.timePerImageNs());
    EXPECT_GT(two.totalEnergyPerImageUj(),
              one.totalEnergyPerImageUj() * 1.5);
}

TEST(TrainerStats, RecordsSpikesWhenAttached)
{
    snn::SnnConfig config;
    config.numInputs = 64;
    config.numNeurons = 5;
    config.coding.periodMs = 100;
    config.coding.minIntervalMs = 10;
    config.initialThreshold = 2000.0;
    config.homeostasis.enabled = false;

    datasets::Dataset data("toy", 8, 8, 2);
    Rng gen(1);
    for (int i = 0; i < 12; ++i) {
        datasets::Sample s;
        s.label = i % 2;
        s.pixels.assign(64, 0);
        for (int k = 0; k < 24; ++k)
            s.pixels[gen.uniformInt(64)] = 220;
        data.add(std::move(s));
    }

    Rng rng(2);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 2;
    Profiler::instance().reset();
    Profiler::instance().setEnabled(true);
    trainer.train(net, data, train);
    Profiler::instance().setEnabled(false);

    const telemetry::MetricsSnapshot stats =
        Profiler::instance().snapshot();
    EXPECT_EQ(stats.counter("snn.images_presented"), 24u);
    EXPECT_GT(stats.counter("snn.input_spikes"), 0u);
    EXPECT_EQ(stats.histogram("snn.epoch_output_spikes").count, 2u);
    EXPECT_EQ(stats.histogram("scope/snn/train/epoch").count, 2u);
}

TEST(TrainerStats, SilentWithoutSink)
{
    snn::SnnConfig config;
    config.numInputs = 16;
    config.numNeurons = 3;
    config.coding.periodMs = 50;
    config.homeostasis.enabled = false;
    datasets::Dataset data("toy", 4, 4, 2);
    datasets::Sample s;
    s.label = 0;
    s.pixels.assign(16, 200);
    data.add(s);

    Rng rng(3);
    snn::SnnNetwork net(config, rng);
    snn::SnnStdpTrainer trainer(config);
    snn::SnnTrainConfig train;
    train.epochs = 1;
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
    trainer.train(net, data, train);

    // Profiling off: the trainer records nothing.
    const telemetry::MetricsSnapshot stats =
        Profiler::instance().snapshot();
    EXPECT_EQ(stats.counter("snn.images_presented"), 0u);
    EXPECT_EQ(stats.counter("snn.input_spikes"), 0u);
    EXPECT_EQ(stats.histogram("snn.epoch_output_spikes").count, 0u);
}

} // namespace
} // namespace neuro
