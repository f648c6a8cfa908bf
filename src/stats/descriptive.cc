#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/log.hh"

namespace raceval::stats
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0)
        / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double ss = 0.0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    return ss / static_cast<double>(xs.size() - 1);
}

double
stddev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    if (n % 2)
        return xs[n / 2];
    return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        RV_ASSERT(x > 0.0, "geomean of non-positive value %f", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
minOf(const std::vector<double> &xs)
{
    double best = std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::min(best, x);
    return best;
}

double
maxOf(const std::vector<double> &xs)
{
    double best = -std::numeric_limits<double>::infinity();
    for (double x : xs)
        best = std::max(best, x);
    return best;
}

std::vector<double>
averageRanks(const std::vector<double> &xs)
{
    size_t n = xs.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });

    std::vector<double> ranks(n, 0.0);
    size_t i = 0;
    while (i < n) {
        size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        // Positions i..j (0-based) tie; they share the mean 1-based rank.
        double shared = 0.5 * (static_cast<double>(i + 1)
                               + static_cast<double>(j + 1));
        for (size_t k = i; k <= j; ++k)
            ranks[order[k]] = shared;
        i = j + 1;
    }
    return ranks;
}

void
RunningStat::push(double x)
{
    ++n;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    double delta = other.m - m;
    size_t total = n + other.n;
    m2 += other.m2 + delta * delta
        * static_cast<double>(n) * static_cast<double>(other.n)
        / static_cast<double>(total);
    m += delta * static_cast<double>(other.n) / static_cast<double>(total);
    n = total;
}

} // namespace raceval::stats
