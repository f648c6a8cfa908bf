/**
 * @file
 * Descriptive statistics and rank utilities.
 */

#ifndef RACEVAL_STATS_DESCRIPTIVE_HH
#define RACEVAL_STATS_DESCRIPTIVE_HH

#include <cstddef>
#include <vector>

namespace raceval::stats
{

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Unbiased sample variance (n-1 denominator); 0 when n < 2. */
double variance(const std::vector<double> &xs);

/** Sample standard deviation. */
double stddev(const std::vector<double> &xs);

/** Median (average of middle two for even n); 0 for empty input. */
double median(std::vector<double> xs);

/** Geometric mean; inputs must be positive. */
double geomean(const std::vector<double> &xs);

/** Minimum; +inf for empty input. */
double minOf(const std::vector<double> &xs);

/** Maximum; -inf for empty input. */
double maxOf(const std::vector<double> &xs);

/**
 * Average ranks (1-based) with ties sharing the mean of their positions.
 *
 * E.g. {3.0, 1.0, 1.0} -> {3.0, 1.5, 1.5}.
 */
std::vector<double> averageRanks(const std::vector<double> &xs);

/**
 * Streaming accumulator for mean/variance (Welford) used by simulators
 * that must not buffer per-sample values.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void push(double x);

    /** @return number of samples. */
    size_t count() const { return n; }

    /** @return mean of the samples so far (0 if none). */
    double mean() const { return n ? m : 0.0; }

    /** @return unbiased variance (0 when n < 2). */
    double variance() const { return n > 1 ? m2 / double(n - 1) : 0.0; }

    /** @return sample standard deviation. */
    double stddev() const;

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

  private:
    size_t n = 0;
    double m = 0.0;
    double m2 = 0.0;
};

} // namespace raceval::stats

#endif // RACEVAL_STATS_DESCRIPTIVE_HH
